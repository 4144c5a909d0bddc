package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// longConfig is a scenario that would simulate for minutes of wall clock if
// cancellation failed to reach the event loop.
func longConfig() Config {
	cfg := PaperConfig()
	cfg.SimTime = 5e7
	cfg.Warmup = 0
	cfg.Replications = 2
	return cfg
}

// TestRunBatchCancelsMidReplication is the tentpole's acceptance test: a
// cancelled batch must abort inside a running replication — bounded by
// wall clock, not by the simulation horizon — returning ctx.Err(), and the
// aborted run must leave nothing behind in the estimate cache.
func TestRunBatchCancelsMidReplication(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	for _, method := range []string{"simulation", "petrinet"} {
		t.Run(method, func(t *testing.T) {
			r, err := NewRunner(WithConfig(longConfig()), WithMethods(method))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err = r.RunAll(ctx, []Scenario{{Name: "long"}})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled RunAll returned %v, want context.Canceled", err)
			}
			// The 5e7 s horizon takes minutes uncancelled; the abort must
			// land within the event-loop polling latency plus scheduling
			// slack.
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v — not mid-replication", elapsed)
			}
		})
	}
	if entries, _ := EstimateCacheStats(); entries != 0 {
		t.Fatalf("cancelled runs stored %d cache entries, want 0", entries)
	}
}

// TestCacheIntactAfterCancellation: after a cancelled sweep, re-running the
// same scenario to completion must produce the same estimate as a
// cache-free evaluation — a cancelled run may neither poison the cache nor
// leave a partial result behind.
func TestCacheIntactAfterCancellation(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	cfg := PaperConfig()
	cfg.SimTime = 120
	cfg.Warmup = 10
	cfg.Replications = 2

	// Cancel a batch over the same configuration mid-flight.
	r, err := NewRunner(WithConfig(cfg), WithMethods("petrinet"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunAll(ctx, []Scenario{{}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunAll returned %v", err)
	}

	// The completed re-run must match an uncached evaluation bit for bit.
	cached, err := r.Run(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	rNoCache, err := NewRunner(WithConfig(cfg), WithMethods("petrinet"), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rNoCache.Run(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if *cached.Estimates[0] != *direct.Estimates[0] {
		t.Fatalf("post-cancellation estimate differs from direct evaluation:\ncached: %+v\ndirect: %+v",
			*cached.Estimates[0], *direct.Estimates[0])
	}
}

// TestDeadlineSkippingDisabled: the Runner never refuses a scenario up
// front, even when its trained cost model prices the scenario past the
// context deadline. The estimator starts, the deadline aborts it mid-run,
// the batch fails with the context's error, and nothing is cached.
func TestDeadlineSkippingDisabled(t *testing.T) {
	var calls atomic.Int64
	backend := NewMemoryBackend()
	r, err := NewRunner(
		WithConfig(PaperConfig()),
		WithEstimators(sleepEstimator{d: 300 * time.Millisecond, calls: &calls}),
		WithCacheBackend(backend),
	)
	if err != nil {
		t.Fatal(err)
	}
	trainRunner(t, r, r.BaseConfig())
	trained, err := backend.Stats()
	if err != nil {
		t.Fatal(err)
	}

	fresh := r.BaseConfig()
	fresh.PDT = 0.123
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = r.RunAll(ctx, []Scenario{{Name: "doomed", Config: fresh}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impossible deadline returned %v, want context.DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("estimator should have been attempted (%d calls, want 2)", got)
	}
	if st, err := backend.Stats(); err != nil || st.Entries != trained.Entries {
		t.Fatalf("aborted run changed the cache: (%+v, %v), want %d entries", st, err, trained.Entries)
	}
}

// TestSeedDerivationToggle pins WithSeedDerivation: off means the
// scenario's Config.Seed runs verbatim (the fixed-seed experiments'
// contract), on means it is replaced by a derived stream.
func TestSeedDerivationToggle(t *testing.T) {
	cfg := PaperConfig()
	cfg.SimTime = 60
	cfg.Warmup = 5
	cfg.Replications = 1

	raw, err := NewRunner(WithConfig(cfg), WithMethods("markov"), WithSeedDerivation(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := raw.Run(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != cfg.Seed {
		t.Fatalf("WithSeedDerivation(false): scenario ran with seed %d, want the config's %d", res.Seed, cfg.Seed)
	}

	derived, err := NewRunner(WithConfig(cfg), WithMethods("markov"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = derived.Run(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed == cfg.Seed {
		t.Fatalf("default derivation left the raw config seed %d in place", res.Seed)
	}
}

// TestEstimatorFanOutWithinScenario: the pair-level refactor must run a
// single scenario's estimators concurrently. Each estimator blocks until
// released, and the release only happens once all four have reported in —
// under the old scenario-granular dispatch only one would ever start, and
// the test would time out.
func TestEstimatorFanOutWithinScenario(t *testing.T) {
	const fan = 4
	started := make(chan int, fan)
	release := make(chan struct{})
	ests := make([]Estimator, fan)
	for i := range ests {
		ests[i] = blockingEstimator{id: i, started: started, release: release}
	}
	r, err := NewRunner(
		WithEstimators(ests...),
		WithParallelism(fan),
		WithCache(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), Scenario{})
		done <- err
	}()
	deadline := time.After(30 * time.Second)
	for i := 0; i < fan; i++ {
		select {
		case <-started:
		case <-deadline:
			t.Fatalf("only %d of %d estimators in flight concurrently", i, fan)
		}
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("single-scenario batch did not complete after release")
	}
}

// blockingEstimator announces that it started and waits until release is
// closed, proving concurrent dispatch of its scenario's sibling
// estimators.
type blockingEstimator struct {
	id      int
	started chan int
	release chan struct{}
}

func (b blockingEstimator) Name() string { return "blocking" }

func (b blockingEstimator) Estimate(cfg Config) (*Estimate, error) {
	return b.EstimateContext(context.Background(), cfg)
}

func (b blockingEstimator) EstimateContext(ctx context.Context, cfg Config) (*Estimate, error) {
	b.started <- b.id
	select {
	case <-b.release:
		return &Estimate{Method: "blocking", EnergyJ: float64(b.id)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
