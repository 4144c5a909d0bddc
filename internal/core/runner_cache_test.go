package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countingEstimator counts Estimate invocations and returns a result
// derived deterministically from the config. It deliberately implements
// only the legacy (context-free) estimator shape, so the cache tests also
// exercise the AdaptEstimator shim path.
type countingEstimator struct {
	calls *atomic.Int64
}

func (c countingEstimator) Name() string { return "counting" }

func (c countingEstimator) Estimate(cfg Config) (*Estimate, error) {
	c.calls.Add(1)
	return &Estimate{Method: "counting", EnergyJ: cfg.PDT * 100, MeanJobs: cfg.Rho()}, nil
}

func cacheTestRunner(t *testing.T, calls *atomic.Int64, opts ...RunnerOption) *Runner {
	t.Helper()
	r, err := NewRunner(append([]RunnerOption{
		WithConfig(PaperConfig()),
		WithSeed(77),
		WithEstimators(AdaptEstimator(countingEstimator{calls: calls})),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pdtSweep builds the Figure-4-style scenario grid.
func pdtSweep(base Config, pdts []float64) []Scenario {
	out := make([]Scenario, len(pdts))
	for i, pdt := range pdts {
		cfg := base
		cfg.PDT = pdt
		out[i] = Scenario{Config: cfg}
	}
	return out
}

func TestRunnerMemoizesRepeatedScenarios(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	var calls atomic.Int64
	r := cacheTestRunner(t, &calls)
	scenarios := pdtSweep(r.BaseConfig(), []float64{0, 0.25, 0.5})

	first, err := r.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("first batch ran the estimator %d times, want 3", got)
	}
	// The same grid again — the Figure 4 / Figure 5 sharing pattern — must
	// be answered entirely from the cache, including through a *different*
	// Runner with the same seed.
	r2 := cacheTestRunner(t, &calls)
	second, err := r2.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("repeat batch re-ran the estimator (%d total calls, want 3)", got)
	}
	for i := range first {
		if *first[i].Estimates[0] != *second[i].Estimates[0] {
			t.Fatalf("scenario %d: cached estimate differs from computed one", i)
		}
	}
	if entries, hits := EstimateCacheStats(); entries != 3 || hits != 3 {
		t.Fatalf("cache stats entries=%d hits=%d, want 3 and 3", entries, hits)
	}
}

func TestRunnerCacheRespectsSeedAndConfig(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	var calls atomic.Int64
	scenarios := pdtSweep(PaperConfig(), []float64{0, 0.5})

	r1 := cacheTestRunner(t, &calls)
	if _, err := r1.RunAll(context.Background(), scenarios); err != nil {
		t.Fatal(err)
	}
	// A different master seed derives different effective configs: no
	// cache hits, two more estimator runs.
	r2 := cacheTestRunner(t, &calls, WithSeed(78))
	if _, err := r2.RunAll(context.Background(), scenarios); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("distinct seeds shared cache entries: %d calls, want 4", got)
	}
}

func TestRunnerCacheDisabled(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	var calls atomic.Int64
	r := cacheTestRunner(t, &calls, WithCache(false))
	scenarios := pdtSweep(r.BaseConfig(), []float64{0.5})
	for i := 0; i < 2; i++ {
		if _, err := r.RunAll(context.Background(), scenarios); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("WithCache(false) still memoized: %d calls, want 2", got)
	}
	if entries, _ := EstimateCacheStats(); entries != 0 {
		t.Fatalf("WithCache(false) populated the cache: %d entries", entries)
	}
}

func TestRunnerCacheMutationSafe(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	var calls atomic.Int64
	r := cacheTestRunner(t, &calls)
	scenarios := pdtSweep(r.BaseConfig(), []float64{0.5})
	first, err := r.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	first[0].Estimates[0].EnergyJ = -1 // caller scribbles on the result
	second, err := r.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Estimates[0].EnergyJ == -1 {
		t.Fatal("cache returned the mutated Estimate")
	}
}

// countingBackend is a MemoryBackend that counts Get and Put calls.
type countingBackend struct {
	*MemoryBackend
	gets, puts atomic.Int64
}

func (b *countingBackend) Get(key CacheKey) (Estimate, bool, error) {
	b.gets.Add(1)
	return b.MemoryBackend.Get(key)
}

func (b *countingBackend) Put(key CacheKey, est Estimate) error {
	b.puts.Add(1)
	return b.MemoryBackend.Put(key, est)
}

// TestRunnerLooksUpEachUnitOnce: a cold batch of N distinct scenarios × E
// estimators makes exactly one cache Get and one Put per unit — the
// feeder's prefill is the only lookup.
func TestRunnerLooksUpEachUnitOnce(t *testing.T) {
	var calls atomic.Int64
	backend := &countingBackend{MemoryBackend: NewMemoryBackend()}
	ests, err := NewEstimators("markov")
	if err != nil {
		t.Fatal(err)
	}
	ests = append(ests, AdaptEstimator(countingEstimator{calls: &calls}))
	for _, parallelism := range []int{1, 4} {
		backend.gets.Store(0)
		backend.puts.Store(0)
		if err := backend.Reset(); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(WithConfig(PaperConfig()), WithSeed(77), WithEstimators(ests...),
			WithCacheBackend(backend), WithParallelism(parallelism))
		if err != nil {
			t.Fatal(err)
		}
		scenarios := pdtSweep(r.BaseConfig(), []float64{0, 0.25, 0.5, 0.75, 1})
		if _, err := r.RunAll(context.Background(), scenarios); err != nil {
			t.Fatal(err)
		}
		units := int64(len(scenarios) * len(ests))
		if g, p := backend.gets.Load(), backend.puts.Load(); g != units || p != units {
			t.Fatalf("parallelism %d: %d Get and %d Put calls, want %d of each", parallelism, g, p, units)
		}
	}
}

// cachedTestRunner builds a markov + counting Runner over backend; the
// counting estimator proves Cached never runs an estimator.
func cachedTestRunner(t *testing.T, backend CacheBackend, calls *atomic.Int64, opts ...RunnerOption) *Runner {
	t.Helper()
	ests, err := NewEstimators("markov")
	if err != nil {
		t.Fatal(err)
	}
	ests = append(ests, AdaptEstimator(countingEstimator{calls: calls}))
	r, err := NewRunner(append([]RunnerOption{
		WithConfig(PaperConfig()), WithSeed(77), WithEstimators(ests...), WithCacheBackend(backend),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunnerCached: Cached answers exactly the scenarios whose every
// estimator hits, bit-identical to RunAll and without running anything;
// it skips partial hits and invalid configs, and is off with the cache.
func TestRunnerCached(t *testing.T) {
	var calls atomic.Int64
	backend := NewMemoryBackend()
	r := cachedTestRunner(t, backend, &calls)
	scenarios := pdtSweep(r.BaseConfig(), []float64{0, 0.25, 0.5, 0.75})
	scenarios[1].Name = "named"
	want, err := r.RunAll(context.Background(), scenarios[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Scenario 3 is cached for markov only: one estimator misses.
	markovOnly, err := NewRunner(WithConfig(PaperConfig()), WithSeed(77), WithMethods("markov"), WithCacheBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := markovOnly.RunAll(context.Background(), scenarios[3:]); err != nil {
		t.Fatal(err)
	}

	partial := r.BaseConfig()
	partial.Lambda = 0 // a half-filled config: rejected, not guessed at
	invalid := r.BaseConfig()
	invalid.Mu = -1
	batch := append(append([]Scenario(nil), scenarios...),
		Scenario{Name: "partial", Config: partial},
		Scenario{Name: "invalid", Config: invalid},
		scenarios[0])
	ran := calls.Load()
	got := r.Cached(batch)
	if calls.Load() != ran {
		t.Fatalf("Cached ran the estimator %d times", calls.Load()-ran)
	}
	wantIdx := []int{0, 1, 2, 6}
	refs := []Result{want[0], want[1], want[2], want[0]}
	if len(got) != len(wantIdx) {
		t.Fatalf("Cached answered %d scenarios, want %d (indices %v)", len(got), len(wantIdx), wantIdx)
	}
	for i, res := range got {
		ref := refs[i]
		if res.Index != wantIdx[i] || res.Err != nil || res.Scenario != ref.Scenario || res.Seed != ref.Seed {
			t.Fatalf("result %d = %+v, want index %d of %+v", i, res, wantIdx[i], ref)
		}
		if len(res.Estimates) != len(ref.Estimates) {
			t.Fatalf("result %d: %d estimates, want %d", i, len(res.Estimates), len(ref.Estimates))
		}
		for j := range res.Estimates {
			if *res.Estimates[j] != *ref.Estimates[j] {
				t.Fatalf("result %d estimator %d: cached %+v, RunAll %+v", i, j, *res.Estimates[j], *ref.Estimates[j])
			}
		}
	}
	// Results must not share estimate storage.
	if &got[0].Estimates[0] == &got[1].Estimates[0] {
		t.Fatal("Cached results share one estimate slice")
	}

	off := cachedTestRunner(t, backend, &calls, WithCache(false))
	if got := off.Cached(scenarios); got != nil {
		t.Fatalf("Cached with caching off = %+v, want nil", got)
	}
}

// TestRunnerStore: results stored into an empty backend answer Cached
// bit-identically to the RunAll that produced them, keyed by the seed
// derived from each configuration, not by the result's Seed field; bad
// results are skipped and caching off stores nothing.
func TestRunnerStore(t *testing.T) {
	var calls atomic.Int64
	src := cachedTestRunner(t, NewMemoryBackend(), &calls)
	scenarios := pdtSweep(src.BaseConfig(), []float64{0, 0.25, 0.5})
	scenarios[2].Name = "named"
	want, err := src.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}

	backend := NewMemoryBackend()
	r := cachedTestRunner(t, backend, &calls)
	stored := make([]Result, len(want))
	for i, res := range want {
		res.Seed = 12345 // forged: Store must derive the key's seed itself
		stored[i] = res
	}
	partial := r.BaseConfig()
	partial.Lambda = 0
	invalid := r.BaseConfig()
	invalid.Mu = -1
	invalid.PDT = 0.75
	bad := []Result{
		{Scenario: scenarios[0], Estimates: want[0].Estimates[:1]},                  // too few estimates
		{Scenario: scenarios[1], Estimates: []*Estimate{want[1].Estimates[0], nil}}, // a nil estimate
		{Scenario: Scenario{Config: partial}, Estimates: want[0].Estimates},
		{Scenario: Scenario{Config: invalid}, Estimates: want[0].Estimates},
		{Scenario: scenarios[2], Err: errors.New("failed"), Estimates: nil},
	}
	r.Store(bad)
	if st, _ := backend.Stats(); st.Entries != 0 {
		t.Fatalf("Store kept %d entries of bad results", st.Entries)
	}
	r.Store(stored)
	if st, _ := backend.Stats(); st.Entries != len(want)*2 {
		t.Fatalf("Store kept %d entries, want %d", st.Entries, len(want)*2)
	}

	ran := calls.Load()
	got := r.Cached(scenarios)
	if calls.Load() != ran {
		t.Fatalf("Cached ran the estimator %d times", calls.Load()-ran)
	}
	if len(got) != len(want) {
		t.Fatalf("Cached answered %d of %d stored scenarios", len(got), len(want))
	}
	for i, res := range got {
		ref := want[i]
		if res.Index != i || res.Scenario != ref.Scenario || res.Seed != ref.Seed {
			t.Fatalf("result %d = %+v, want %+v", i, res, ref)
		}
		for j := range res.Estimates {
			if *res.Estimates[j] != *ref.Estimates[j] {
				t.Fatalf("result %d estimator %d: stored %+v, RunAll %+v", i, j, *res.Estimates[j], *ref.Estimates[j])
			}
		}
	}

	offBackend := NewMemoryBackend()
	cachedTestRunner(t, offBackend, &calls, WithCache(false)).Store(want)
	if st, _ := offBackend.Stats(); st.Entries != 0 {
		t.Fatalf("Store with caching off kept %d entries", st.Entries)
	}
}
