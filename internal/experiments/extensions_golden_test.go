package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// The testdata goldens were rendered by the pre-RunBatch (sequential,
// uncached, direct-call) implementations of the three extension
// experiments, at reduced effort so the comparison runs in test time:
//
//	opt := Default()
//	opt.Base.SimTime = 400; opt.Base.Warmup = 50; opt.Base.Replications = 3
//	opt.PUDs = []float64{0.001, 10}
//	ErlangAblationCtx(ctx, opt, []int{1, 8})
//	WorkloadComparisonCtx(ctx, opt)
//	LifetimeCtx(ctx, opt, []float64{0.5, 2})
//
// Byte-for-byte equality here is the acceptance criterion for the RunBatch
// port: evaluation now flows through the Runner's worker pool and result
// cache, but with seed derivation disabled the numbers must not move at
// any parallelism.
//
// The files are re-rendered whenever xrand.StreamVersion bumps (currently
// the version-3 ziggurat exponential law); between bumps no change may
// move them.
func goldenOptions() Options {
	opt := Default()
	opt.Base.SimTime = 400
	opt.Base.Warmup = 50
	opt.Base.Replications = 3
	opt.PUDs = []float64{0.001, 10}
	return opt
}

func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the pre-RunBatch output.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestErlangAblationMatchesPreRunBatchGolden(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		core.ResetEstimateCache()
		opt := goldenOptions()
		opt.Parallelism = parallelism
		tb, err := ErlangAblationCtx(context.Background(), opt, []int{1, 8})
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, "erlang_ablation.golden", tb.ASCII())
	}
}

func TestWorkloadComparisonMatchesPreRunBatchGolden(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		core.ResetEstimateCache()
		opt := goldenOptions()
		opt.Parallelism = parallelism
		tb, err := WorkloadComparisonCtx(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, "workload_comparison.golden", tb.ASCII())
	}
}

func TestLifetimeMatchesPreRunBatchGolden(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		core.ResetEstimateCache()
		opt := goldenOptions()
		opt.Parallelism = parallelism
		tb, err := LifetimeCtx(context.Background(), opt, []float64{0.5, 2})
		if err != nil {
			t.Fatal(err)
		}
		assertGolden(t, "lifetime.golden", tb.ASCII())
	}
}

// TestExtensionExperimentsHitTheCache pins the "cached" half of the port:
// re-rendering a table must be answered from the process-wide result cache
// instead of re-running the simulations.
func TestExtensionExperimentsHitTheCache(t *testing.T) {
	core.ResetEstimateCache()
	t.Cleanup(core.ResetEstimateCache)
	opt := goldenOptions()
	if _, err := WorkloadComparisonCtx(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	entries, hits := core.EstimateCacheStats()
	if entries == 0 {
		t.Fatal("workload comparison did not populate the result cache")
	}
	if _, err := WorkloadComparisonCtx(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	entries2, hits2 := core.EstimateCacheStats()
	if entries2 != entries {
		t.Fatalf("repeat run grew the cache: %d -> %d entries", entries, entries2)
	}
	if wantMin := hits + uint64(entries); hits2 < wantMin {
		t.Fatalf("repeat run missed the cache: hits %d -> %d, want >= %d", hits, hits2, wantMin)
	}
}
