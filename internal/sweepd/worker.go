package sweepd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Backoff is a bounded exponential backoff policy: Delay(attempt) grows by
// Factor from Base and saturates at Max. It paces both idle polling (so a
// quiet coordinator is not hammered) and retries after protocol errors (so
// a briefly unreachable coordinator is retried, not abandoned).
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
}

// DefaultBackoff is the worker's polling/retry policy.
var DefaultBackoff = Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second, Factor: 2}

// Delay returns the wait before the given 0-based attempt.
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		b.Base = DefaultBackoff.Base
	}
	if b.Max <= 0 {
		b.Max = DefaultBackoff.Max
	}
	if b.Factor < 1 {
		b.Factor = DefaultBackoff.Factor
	}
	d := float64(b.Base) * math.Pow(b.Factor, float64(attempt))
	if d > float64(b.Max) || math.IsInf(d, 1) {
		return b.Max
	}
	return time.Duration(d)
}

// submitRetries bounds how many times a worker re-sends a finished shard's
// results before giving the partition up; losing a finished shard costs a
// re-run, never correctness.
const submitRetries = 5

// errorBudget is how many consecutive failed polls a worker tolerates
// before concluding the coordinator is gone for good.
const errorBudget = 8

// WorkerOptions parameterizes Work.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Name identifies the worker in coordinator status and logs.
	Name string
	// Parallelism caps how many (scenario, estimator) pairs the worker's
	// Runner evaluates at once (0 = GOMAXPROCS). It is the worker's only
	// parallelism: each pair runs its replications sequentially.
	Parallelism int
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Backoff paces idle polls and error retries (zero value =
	// DefaultBackoff).
	Backoff Backoff
	// MaxIdlePolls exits the worker after this many consecutive LeaseWait
	// answers (0 = poll until LeaseBye or context cancellation).
	MaxIdlePolls int
	// CacheDir, when set, memoizes every lease through a file-backed
	// result cache in this directory (a fleet on one machine can share
	// it). Unset, each lease runs on a fresh in-memory cache of its own.
	CacheDir string
	// Drain, when non-nil and closed, asks the worker to exit gracefully:
	// the current lease runs to completion (or clean failure) and no new
	// lease is polled for. Cancelling ctx instead aborts the current lease
	// mid-run (it is cleanly failed back to the coordinator).
	Drain <-chan struct{}
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

// Work runs the worker loop: poll for a lease (with backoff), run the
// leased shard under a heartbeat, submit results and the trained cost
// table, repeat. It returns nil when the coordinator says LeaseBye, when
// MaxIdlePolls is exhausted, or when ctx is done; it returns an error only
// when the coordinator stays unreachable past the error budget.
func Work(ctx context.Context, opts WorkerOptions) error {
	client, err := NewClient(opts.Coordinator, opts.Client)
	if err != nil {
		return err
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	idle, failures := 0, 0
	for {
		if err := sleepCtx(ctx, 0); err != nil {
			return nil // context done between leases: a clean exit
		}
		if opts.Drain != nil {
			select {
			case <-opts.Drain:
				logf("drain requested; exiting between leases")
				return nil
			default:
			}
		}
		resp, err := client.Lease(opts.Name)
		if err != nil {
			failures++
			if failures >= errorBudget {
				return fmt.Errorf("sweepd: %d consecutive poll failures, giving up: %w", failures, err)
			}
			logf("poll failed (%d/%d): %v", failures, errorBudget, err)
			if err := sleepCtx(ctx, opts.Backoff.Delay(failures-1)); err != nil {
				return nil
			}
			continue
		}
		failures = 0
		switch resp.Status {
		case LeaseBye:
			logf("coordinator is draining; exiting")
			return nil
		case LeaseWait:
			idle++
			if opts.MaxIdlePolls > 0 && idle >= opts.MaxIdlePolls {
				logf("no work after %d polls; exiting", idle)
				return nil
			}
			if err := sleepCtx(ctx, opts.Backoff.Delay(idle-1)); err != nil {
				return nil
			}
		case LeaseWork:
			idle = 0
			runLease(ctx, client, opts, resp, logf)
		default:
			failures++
			logf("unknown lease status %q", resp.Status)
		}
	}
}

// runLease executes one granted lease end to end. Failures are reported to
// the coordinator (best effort) so the partition requeues promptly instead
// of waiting out the lease TTL.
func runLease(ctx context.Context, client *Client, opts WorkerOptions, resp LeaseResponse, logf func(string, ...any)) {
	if resp.Runner == nil || resp.Shard == nil {
		logf("lease %s carries no work; dropping", resp.LeaseID)
		_ = client.Fail(resp.LeaseID, "lease carried no runner or shard")
		return
	}
	logf("lease %s: sweep %s shard %d (%d scenarios)",
		resp.LeaseID, resp.SweepID, resp.Shard.Index, len(resp.Shard.Items))

	// Never the process-wide default cache: a worker process that has
	// already run a scenario would answer it from memory, and a "cold"
	// sweep would not be cold. The coordinator stores what it accepts.
	var backend core.CacheBackend = core.NewMemoryBackend()
	if opts.CacheDir != "" {
		fb, err := core.NewFileBackend(opts.CacheDir)
		if err != nil {
			_ = client.Fail(resp.LeaseID, err.Error())
			return
		}
		backend = fb
	}
	runner, err := resp.Runner.NewRunner(core.WithParallelism(opts.Parallelism), core.WithCacheBackend(backend))
	if err != nil {
		_ = client.Fail(resp.LeaseID, err.Error())
		return
	}

	// Heartbeat at a third of the TTL; losing the lease (another worker
	// owns the partition now) cancels the shard run.
	runCtx, cancel := context.WithCancel(ctx)
	ttl := time.Duration(resp.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(ttl / 3)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
				if err := client.Heartbeat(resp.LeaseID); err != nil {
					if errors.Is(err, ErrLeaseGone) {
						logf("lease %s gone mid-run; abandoning shard", resp.LeaseID)
						cancel()
						return
					}
					logf("heartbeat for lease %s failed: %v", resp.LeaseID, err)
				}
			}
		}
	}()

	rs, runErr := shard.RunShard(runCtx, runner, *resp.Shard)
	cancel()
	<-hbDone
	if runErr != nil {
		logf("lease %s failed: %v", resp.LeaseID, runErr)
		_ = client.Fail(resp.LeaseID, runErr.Error())
		return
	}

	sub := ResultSubmission{Results: rs, Costs: runner.CostSnapshot()}
	for attempt := 0; ; attempt++ {
		err := client.Results(resp.LeaseID, sub)
		if err == nil {
			logf("lease %s: %d results submitted", resp.LeaseID, len(rs.Results))
			return
		}
		if errors.Is(err, ErrLeaseGone) {
			logf("lease %s reclaimed before submission; results dropped", resp.LeaseID)
			return
		}
		if attempt+1 >= submitRetries {
			logf("lease %s: submission failed %d times, dropping: %v", resp.LeaseID, attempt+1, err)
			return
		}
		logf("lease %s: submission retry %d: %v", resp.LeaseID, attempt+1, err)
		if sleepCtx(ctx, opts.Backoff.Delay(attempt)) != nil {
			return
		}
	}
}

// sleepCtx waits d or until ctx is done (returning ctx's error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
