package cpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/workload"
)

func longRunConfig() Config {
	return Config{
		Arrivals: workload.NewPoisson(1),
		Service:  dist.ExpMean(0.1),
		PDT:      0.5,
		PUD:      0.001,
		SimTime:  5e7, // minutes of wall clock if cancellation fails
		Seed:     1,
	}
}

// TestRunContextCancelsMidSimulation: the event loop must abort between
// events with ctx.Err() instead of running to the horizon.
func TestRunContextCancelsMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, longRunConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunContext returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v — not mid-simulation", elapsed)
	}
}

// TestRunReplicationsContextCancels covers both workload kinds: an open
// workload with a (possibly stateful) arrival source and a closed one.
func TestRunReplicationsContextCancels(t *testing.T) {
	t.Run("open-source-sequential", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		_, err := RunReplicationsContext(ctx, longRunConfig(), 4)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("returned %v, want context.Canceled", err)
		}
	})
	t.Run("closed-workload", func(t *testing.T) {
		cfg := longRunConfig()
		cfg.Arrivals = nil
		cfg.Closed = &workload.Closed{Customers: 2, Think: dist.ExpMean(1)}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		_, err := RunReplicationsContext(ctx, cfg, 4)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("returned %v, want context.Canceled", err)
		}
	})
}

// TestRunContextUncancelledMatchesRun: threading a live context through the
// event loop must not change results.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := longRunConfig()
	cfg.SimTime = 500
	cfg.Warmup = 50
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fractions != b.Fractions || a.JobsServed != b.JobsServed || a.MeanJobs != b.MeanJobs {
		t.Fatalf("RunContext diverged from Run:\n%+v\n%+v", a, b)
	}
}
