package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Scenario is one evaluation point of a batch: a named model configuration.
// A zero-valued Config means "use the Runner's base configuration"; for a
// variation on the base, copy Runner.BaseConfig and modify it:
//
//	c := runner.BaseConfig()
//	c.PDT = 0.3
//	s := Scenario{Name: "PDT=0.3", Config: c}
type Scenario struct {
	// Name labels the scenario in results and logs. Optional.
	Name string
	// Config is the full model configuration for this point. The zero
	// value means the Runner's base configuration; a partially filled
	// Config (no Lambda but other fields set) is rejected rather than
	// guessed at.
	Config Config
}

// Result is the outcome of one scenario. Estimates is parallel to the
// Runner's estimator list; Err is non-nil if any estimator failed, in which
// case Estimates is nil.
type Result struct {
	// Index is the scenario's position in the RunBatch input, so consumers
	// can reorder the completion-ordered channel.
	Index int
	// Scenario echoes the input scenario.
	Scenario Scenario
	// Seed is the effective seed the scenario ran with, derived
	// deterministically from the Runner's master seed and the scenario's
	// configuration content.
	Seed uint64
	// Estimates holds one result per estimator, in estimator order.
	Estimates []*Estimate
	// Skipped reports that deadline-aware scheduling refused to start the
	// scenario because its estimated cost exceeded the remaining context
	// deadline; Err wraps ErrDeadlineSkipped and Estimates is nil.
	Skipped bool
	// Err reports the first estimator failure for this scenario.
	Err error
}

// Runner evaluates batches of scenarios across a fixed estimator set with a
// bounded worker pool. Construct it with NewRunner; a Runner is safe for
// concurrent use and reusable across batches.
type Runner struct {
	base        Config
	seed        uint64
	parallelism int
	estimators  []Estimator
	// estIDs caches each estimator's implementation identity (parallel to
	// estimators): deriving it needs reflection and string building, which
	// must not run once per cache lookup on the memoized fast path.
	estIDs       []string
	cache        bool
	backend      CacheBackend
	deriveSeeds  bool
	deadlineSkip bool
	costs        costModel
}

// runnerSettings accumulates option values before the Runner is sealed.
type runnerSettings struct {
	base           Config
	seed           uint64
	seedSet        bool
	parallelism    int
	estimators     []Estimator
	noCache        bool
	backend        CacheBackend
	rawSeeds       bool
	noDeadlineSkip bool
}

// ErrDeadlineSkipped marks a scenario that deadline-aware scheduling
// refused to start: its estimated cost exceeded the time remaining before
// the context deadline. Skipped scenarios are reported with Result.Skipped
// set, wrap this error, and are never cached.
var ErrDeadlineSkipped = errors.New("estimated cost exceeds the remaining context deadline")

// costModel tracks the observed wall-clock cost of each estimator (keyed
// by the same implementation identity the result cache uses) as two
// exponentially weighted moving averages: cost per unit of simulated work
// and absolute cost per run. A prediction is the *minimum* of the
// work-scaled and the absolute estimate, so every modeling error biases
// toward attempting, never toward skipping: a work-proportional simulator
// trained on long horizons predicts short scenarios proportionally
// (absolute would over-predict), and an O(1) analytic solver trained on
// short horizons predicts long scenarios by its flat cost (work-scaled
// would over-predict). The worst case is an under-prediction that lets a
// doomed scenario start — which the deadline then aborts, exactly the
// pre-skip behaviour. The model powers deadline-aware scheduling and is
// per-Runner so unrelated workloads (and tests) never train each other.
type costModel struct {
	mu sync.Mutex
	m  map[string]costEstimate
}

// costEstimate is one estimator's trained state: EWMA seconds per unit of
// work and EWMA seconds per run.
type costEstimate struct {
	perWork float64
	abs     float64
}

// ConfigWork scores how much simulation a config asks for: horizon times
// replications, the quantity stochastic estimators scale roughly linearly
// in. It is the work unit of the cost model, exported so planners holding
// a CostTable can price scenarios the same way the Runner does.
func ConfigWork(cfg Config) float64 {
	work := cfg.SimTime + cfg.Warmup
	if work <= 0 {
		work = 1
	}
	if cfg.Replications > 1 {
		work *= float64(cfg.Replications)
	}
	return work
}

// observe folds one completed run into the estimator's moving averages.
func (c *costModel) observe(id string, d time.Duration, work float64) {
	secs := d.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]costEstimate)
	}
	if prev, ok := c.m[id]; ok {
		c.m[id] = costEstimate{
			perWork: (prev.perWork + secs/work) / 2,
			abs:     (prev.abs + secs) / 2,
		}
	} else {
		c.m[id] = costEstimate{perWork: secs / work, abs: secs}
	}
}

// predict returns the cost estimate for running an estimator over the
// given amount of work: min(work-scaled, absolute). ok is false until at
// least one run has been observed (an untrained model never causes a
// skip).
func (c *costModel) predict(id string, work float64) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	est, ok := c.m[id]
	if !ok {
		return 0, false
	}
	secs := est.perWork * work
	if est.abs < secs {
		secs = est.abs
	}
	return time.Duration(secs * float64(time.Second)), true
}

// CostSample is one estimator's exported cost-model state: EWMA seconds
// per unit of ConfigWork and EWMA seconds per run. The JSON shape is the
// wire form sweep workers ship their trained models to a coordinator in.
type CostSample struct {
	PerWorkSeconds float64 `json:"per_work_seconds"`
	AbsSeconds     float64 `json:"abs_seconds"`
}

// CostTable is a serializable snapshot of a Runner's trained cost model,
// keyed by estimator implementation identity (the same key the result
// cache uses — see EstimatorIDs to derive keys from method specs). A
// coordinator merges the tables its workers report and feeds predictions
// into cost-weighted shard planning.
type CostTable map[string]CostSample

// CostSnapshot exports the Runner's current cost model. The snapshot is a
// copy: later observations do not mutate it.
func (r *Runner) CostSnapshot() CostTable {
	r.costs.mu.Lock()
	defer r.costs.mu.Unlock()
	t := make(CostTable, len(r.costs.m))
	for id, est := range r.costs.m {
		t[id] = CostSample{PerWorkSeconds: est.perWork, AbsSeconds: est.abs}
	}
	return t
}

// PredictSeconds prices one estimator's run over the given amount of work
// the way the Runner's scheduler does: min(work-scaled, absolute), biasing
// every modeling error toward under- rather than over-prediction. ok is
// false for estimators the table has no sample for.
func (t CostTable) PredictSeconds(id string, work float64) (float64, bool) {
	est, ok := t[id]
	if !ok {
		return 0, false
	}
	secs := est.PerWorkSeconds * work
	if est.AbsSeconds < secs {
		secs = est.AbsSeconds
	}
	return secs, true
}

// ScenarioSeconds prices a whole scenario across estimator ids: the
// slowest single estimator (they run concurrently under the Runner's
// pair-level fan-out), scaled to the config's work. Unsampled estimators
// price as zero, so a partially trained table under-predicts — the safe
// direction for both deadline skipping and load balancing.
func (t CostTable) ScenarioSeconds(cfg Config, ids []string) float64 {
	work := ConfigWork(cfg)
	worst := 0.0
	for _, id := range ids {
		if secs, ok := t.PredictSeconds(id, work); ok && secs > worst {
			worst = secs
		}
	}
	return worst
}

// Merge folds another table into this one with the cost model's own EWMA
// rule — samples present in both average, new samples copy — and returns
// the receiver for chaining. A coordinator calls it once per worker
// report, so repeated reports converge the same way repeated observations
// do inside a Runner.
func (t CostTable) Merge(other CostTable) CostTable {
	for id, n := range other {
		if prev, ok := t[id]; ok {
			t[id] = CostSample{
				PerWorkSeconds: (prev.PerWorkSeconds + n.PerWorkSeconds) / 2,
				AbsSeconds:     (prev.AbsSeconds + n.AbsSeconds) / 2,
			}
		} else {
			t[id] = n
		}
	}
	return t
}

// EstimatorIDs resolves method specs through the registry to the estimator
// implementation identities CostTable and the result cache are keyed by.
func EstimatorIDs(specs ...string) ([]string, error) {
	ests, err := NewEstimators(specs...)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(ests))
	for i, e := range ests {
		ids[i] = estimatorID(e)
	}
	return ids, nil
}

// RunnerOption configures a Runner under construction.
type RunnerOption func(*runnerSettings) error

// WithConfig sets the base model configuration (default PaperConfig).
func WithConfig(cfg Config) RunnerOption {
	return func(s *runnerSettings) error {
		s.base = cfg
		return nil
	}
}

// WithSeed sets the master seed from which every scenario's RNG seed is
// derived (default: the base configuration's seed). Two Runners with equal
// seeds produce bit-identical results for equal batches, at any parallelism.
func WithSeed(seed uint64) RunnerOption {
	return func(s *runnerSettings) error {
		s.seed = seed
		s.seedSet = true
		return nil
	}
}

// WithParallelism bounds the number of (scenario, estimator) pairs
// evaluated concurrently (default runtime.GOMAXPROCS(0); 1 forces
// sequential execution). It is the only parallelism knob: the simulation
// engines run an estimate's replications one after another on the
// worker's goroutine.
func WithParallelism(n int) RunnerOption {
	return func(s *runnerSettings) error {
		if n < 0 {
			return fmt.Errorf("core: parallelism must be >= 0, got %d", n)
		}
		s.parallelism = n
		return nil
	}
}

// WithEstimators sets the estimator list (default Methods(), the paper's
// three in presentation order).
func WithEstimators(ests ...Estimator) RunnerOption {
	return func(s *runnerSettings) error {
		if len(ests) == 0 {
			return fmt.Errorf("core: WithEstimators needs at least one estimator")
		}
		for i, e := range ests {
			if e == nil {
				return fmt.Errorf("core: estimator %d is nil", i)
			}
		}
		s.estimators = append([]Estimator(nil), ests...)
		return nil
	}
}

// WithCache enables or disables result memoization (default enabled).
// With memoization on, a scenario whose effective configuration and
// estimator name match a previously computed result — in this Runner or
// any other — returns the cached Estimate instead of re-running the
// estimator. Disable it for estimators whose Name does not uniquely
// identify a pure function of the Config.
func WithCache(enabled bool) RunnerOption {
	return func(s *runnerSettings) error {
		s.noCache = !enabled
		return nil
	}
}

// WithCacheBackend routes the Runner's result memoization through a
// specific backend instead of the process-wide default — typically a
// FileBackend or HTTPBackend shared with the other worker processes of
// the same sweep. Setting a backend implies WithCache(true) unless WithCache(false)
// is also given.
func WithCacheBackend(b CacheBackend) RunnerOption {
	return func(s *runnerSettings) error {
		if b == nil {
			return fmt.Errorf("core: WithCacheBackend needs a non-nil backend")
		}
		s.backend = b
		return nil
	}
}

// WithDeadlineSkipping enables or disables deadline-aware scheduling
// (default enabled). When the batch context carries a deadline and the
// Runner has already observed how long an estimator takes, a scenario
// whose predicted cost exceeds the remaining time is not started: it is
// reported immediately with Result.Skipped set and an error wrapping
// ErrDeadlineSkipped, and nothing is cached for it. Scenarios answered
// entirely from the cache are never skipped. Disable it to force every
// scenario to be attempted until the deadline actually expires.
func WithDeadlineSkipping(enabled bool) RunnerOption {
	return func(s *runnerSettings) error {
		s.noDeadlineSkip = !enabled
		return nil
	}
}

// WithSeedDerivation enables or disables per-scenario seed derivation
// (default enabled). With derivation on, every scenario's effective Seed is
// derived from the Runner's master seed and the scenario's configuration
// content, so distinct grid points draw independent random streams. With
// derivation off, scenarios run with their Config.Seed exactly as given —
// the contract of the fixed-seed experiments (ErlangAblation,
// WorkloadComparison, Lifetime) and of one-off method comparisons, where
// every method must see the same seed for cross-method comparability and
// results must reproduce the pre-Runner tables bit for bit.
func WithSeedDerivation(enabled bool) RunnerOption {
	return func(s *runnerSettings) error {
		s.rawSeeds = !enabled
		return nil
	}
}

// WithMethods resolves estimators by registered name through the registry,
// e.g. WithMethods("sim", "markov", "erlang32").
func WithMethods(specs ...string) RunnerOption {
	return func(s *runnerSettings) error {
		ests, err := NewEstimators(specs...)
		if err != nil {
			return err
		}
		s.estimators = ests
		return nil
	}
}

// NewRunner builds a Runner from functional options.
func NewRunner(opts ...RunnerOption) (*Runner, error) {
	s := runnerSettings{base: PaperConfig()}
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if !s.seedSet {
		s.seed = s.base.Seed
	}
	if s.parallelism == 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	if len(s.estimators) == 0 {
		s.estimators = Methods()
	}
	if err := s.base.Validate(); err != nil {
		return nil, err
	}
	if s.backend == nil {
		s.backend = defaultCache
	}
	estIDs := make([]string, len(s.estimators))
	for i, e := range s.estimators {
		estIDs[i] = estimatorID(e)
	}
	return &Runner{
		base:         s.base,
		seed:         s.seed,
		parallelism:  s.parallelism,
		estimators:   s.estimators,
		estIDs:       estIDs,
		cache:        !s.noCache,
		backend:      s.backend,
		deriveSeeds:  !s.rawSeeds,
		deadlineSkip: !s.noDeadlineSkip,
	}, nil
}

// BaseConfig returns a copy of the Runner's base configuration — the
// starting point for scenario variations.
func (r *Runner) BaseConfig() Config { return r.base }

// Estimators returns the Runner's estimator list.
func (r *Runner) Estimators() []Estimator {
	return append([]Estimator(nil), r.estimators...)
}

// Parallelism returns the configured worker count.
func (r *Runner) Parallelism() int { return r.parallelism }

// CacheBackend returns the backend this Runner memoizes results through —
// the process-wide default unless WithCacheBackend overrode it. It is the
// handle tests and services use to inspect or reset exactly the cache this
// Runner sees.
func (r *Runner) CacheBackend() CacheBackend { return r.backend }

// ResetEstimateCache empties the Runner's cache backend — whichever
// backend that is, not just the process-wide default map. Tests that swap
// in a FileBackend (or any custom backend) reset it through here.
func (r *Runner) ResetEstimateCache() error { return r.backend.Reset() }

// scenarioSeed derives the deterministic RNG seed of a scenario from the
// master seed and the scenario's configuration content, diffused through
// SplitMix64 (via xrand.NewStream). Seeding by content rather than batch
// index means a grid point reproduces bit-for-bit when re-run alone or
// inside a different grid, results never depend on worker scheduling, and
// distinct points still draw statistically independent streams. By the
// same token, scenarios with identical configurations produce identical
// results; for independent replicates of one configuration, vary
// Config.Seed per scenario — it participates in the hash.
func (r *Runner) scenarioSeed(cfg Config) uint64 {
	h := r.seed
	mix := func(bits uint64) { h = xrand.NewStream(h, bits).Uint64() }
	for _, v := range []float64{
		cfg.Lambda, cfg.Mu, cfg.PDT, cfg.PUD, cfg.SimTime, cfg.Warmup,
	} {
		mix(math.Float64bits(v))
	}
	mix(uint64(cfg.Replications))
	mix(cfg.Seed)
	for _, mw := range cfg.Power.MW {
		mix(math.Float64bits(mw))
	}
	return h
}

// effectiveConfig materializes a scenario's configuration against the base.
func (r *Runner) effectiveConfig(s Scenario) (Config, error) {
	cfg := s.Config
	if cfg == (Config{}) {
		cfg = r.base
	} else if cfg.Lambda == 0 {
		// A half-filled Config (some knobs set, no arrival rate) is
		// ambiguous: refusing beats silently substituting base values.
		return Config{}, fmt.Errorf("partial scenario config (Lambda unset); copy Runner.BaseConfig() and modify it")
	}
	if r.deriveSeeds {
		cfg.Seed = r.scenarioSeed(cfg)
	}
	return cfg, nil
}

// cacheKey derives the canonical cache key of the ei-th estimator's unit
// of work on cfg.
func (r *Runner) cacheKey(cfg Config, ei int) CacheKey {
	return CacheKey{Config: cfg, Method: r.estimators[ei].Name(), Estimator: r.estIDs[ei]}
}

// cacheLookup consults the Runner's backend; a backend error is a miss
// (the cache is best-effort — a degraded backend slows the sweep down but
// never fails or changes it).
func (r *Runner) cacheLookup(key CacheKey) (*Estimate, bool) {
	est, ok, err := r.backend.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	return &est, true
}

// runPair evaluates one (scenario config, estimator) unit of work and, when
// caching is enabled, stores the result. The feeder's prefill has already
// looked the unit up and missed, so runPair does not consult the cache
// again. Cancelled or failed runs are never stored, so a mid-replication
// abort cannot poison the cache; completed runs train the Runner's cost
// model for deadline-aware scheduling.
func (r *Runner) runPair(ctx context.Context, cfg Config, ei int) (*Estimate, error) {
	start := time.Now()
	est, err := r.estimators[ei].EstimateContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	r.costs.observe(r.estIDs[ei], time.Since(start), ConfigWork(cfg))
	if r.cache {
		// Best-effort store: a backend write failure just means the next
		// evaluation of this point recomputes it.
		_ = r.backend.Put(r.cacheKey(cfg, ei), *est)
	}
	return est, nil
}

// predictScenarioCost returns the Runner's cost estimate for the given
// pending estimator units of a scenario: the slowest single unit (with
// full parallelism a scenario cannot finish faster than that), scaled to
// the scenario's configured amount of work. Estimators the model has
// never observed predict as free, so an untrained Runner never skips.
func (r *Runner) predictScenarioCost(cfg Config, pending []int) time.Duration {
	work := ConfigWork(cfg)
	var worst time.Duration
	for _, ei := range pending {
		if d, ok := r.costs.predict(r.estIDs[ei], work); ok && d > worst {
			worst = d
		}
	}
	return worst
}

// scenarioState tracks the in-flight assembly of one scenario's Result
// while its estimator units run concurrently. Each unit writes its own
// slot of ests/errs; the atomic pending counter makes the last finisher —
// which observes all earlier writes — assemble and emit the Result.
type scenarioState struct {
	res     Result
	cfg     Config
	ests    []*Estimate
	errs    []error
	pending atomic.Int32
	// failed short-circuits the scenario's remaining units after the first
	// estimator error, matching the sequential runner's skip-the-rest
	// behaviour without cancelling the whole batch.
	failed atomic.Bool
}

// finish assembles the scenario's Result once every unit has reported. On
// error the lowest-indexed estimator failure is surfaced (the one a
// sequential run would have hit first) and Estimates is nil.
func (st *scenarioState) finish() Result {
	for _, err := range st.errs {
		if err != nil {
			st.res.Err = fmt.Errorf("core: scenario %d (%s): %w",
				st.res.Index, st.res.Scenario.Name, err)
			return st.res
		}
	}
	st.res.Estimates = st.ests
	return st.res
}

// RunBatch fans the batch out over the worker pool and streams results as
// scenarios complete, in arbitrary order (Result.Index restores input
// order). The unit of work is one (scenario, estimator) pair, so a single
// scenario's estimators also run concurrently — a one-scenario,
// many-estimator comparison saturates the pool just like a sweep does.
//
// The returned channel is closed when all scenarios have finished or the
// context is cancelled; after cancellation, unstarted work is dropped and
// incomplete scenarios are never emitted. The context is propagated into
// every estimator via EstimateContext, so cancellation aborts in-flight
// simulations mid-replication (between events), not just between scenarios.
func (r *Runner) RunBatch(ctx context.Context, scenarios []Scenario) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nE := len(r.estimators)
	out := make(chan Result)

	// Materialize every scenario's effective config up front: it is cheap,
	// deterministic, and lets config errors surface as immediate results
	// without occupying workers.
	states := make([]*scenarioState, len(scenarios))
	for i, s := range scenarios {
		st := &scenarioState{res: Result{Index: i, Scenario: s}}
		cfg, err := r.effectiveConfig(s)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			st.res.Err = fmt.Errorf("core: scenario %d (%s): %w", i, s.Name, err)
		} else {
			st.cfg = cfg
			st.res.Seed = cfg.Seed
			st.ests = make([]*Estimate, nE)
			st.errs = make([]error, nE)
			st.pending.Store(int32(nE))
		}
		states[i] = st
	}

	type unit struct{ si, ei int }
	jobs := make(chan unit)
	workers := r.parallelism
	if max := len(scenarios) * nE; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	// The WaitGroup covers the workers and the feeder: both send on out
	// (workers emit completed scenarios, the feeder emits config errors
	// and fully-cached scenarios), so out may only close after all of
	// them have returned.
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	emit := func(res Result) {
		select {
		case out <- res:
		case <-ctx.Done():
		}
	}
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for u := range jobs {
				st := states[u.si]
				if !st.failed.Load() {
					est, err := r.runPair(ctx, st.cfg, u.ei)
					if err != nil {
						st.errs[u.ei] = fmt.Errorf("estimator %s: %w", r.estimators[u.ei].Name(), err)
						st.failed.Store(true)
					} else {
						st.ests[u.ei] = est
					}
				}
				if st.pending.Add(-1) == 0 {
					emit(st.finish())
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(jobs)
		for si, st := range states {
			if st.res.Err != nil {
				// Config-level failure: no units to run, emit directly.
				emit(st.res)
				continue
			}
			if r.cache {
				// Feed-time prefill: resolve cache hits before dispatching,
				// so memoized scenarios — the Figure-4/Figure-5 sharing
				// pattern — complete without a worker round-trip per
				// estimator. None of the scenario's units have been fed
				// yet, so the feeder owns its state exclusively here.
				for ei := range r.estimators {
					if est, ok := r.cacheLookup(r.cacheKey(st.cfg, ei)); ok {
						st.ests[ei] = est
						st.pending.Add(-1)
					}
				}
				if st.pending.Load() == 0 {
					emit(st.finish())
					continue
				}
			}
			if r.deadlineSkip {
				// Deadline-aware scheduling: a scenario predicted (from
				// this Runner's observed estimator costs) to outlast the
				// context deadline is refused up front — reported as
				// skipped, never started, never cached — instead of being
				// run and aborted mid-replication. Prefill ran first, so a
				// scenario the cache can answer completes regardless.
				if deadline, ok := ctx.Deadline(); ok {
					var pending []int
					for ei := range r.estimators {
						if st.ests[ei] == nil {
							pending = append(pending, ei)
						}
					}
					if cost := r.predictScenarioCost(st.cfg, pending); cost > 0 && cost > time.Until(deadline) {
						st.res.Skipped = true
						st.res.Err = fmt.Errorf("core: scenario %d (%s): %w (predicted %v)",
							si, st.res.Scenario.Name, ErrDeadlineSkipped, cost.Round(time.Millisecond))
						st.res.Estimates = nil
						emit(st.res)
						continue
					}
				}
			}
			for ei := 0; ei < nE; ei++ {
				if st.ests[ei] != nil {
					continue // prefilled from the cache
				}
				select {
				case jobs <- unit{si, ei}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// RunAll is RunBatch for consumers that want the whole batch: it blocks
// until every scenario has finished, returns results ordered by scenario
// index, and fails on context cancellation or the first scenario error —
// in which case the remaining unstarted scenarios are abandoned rather
// than run to completion.
func (r *Runner) RunAll(ctx context.Context, scenarios []Scenario) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := r.RunBatch(runCtx, scenarios)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(scenarios))
	seen := 0
	var firstErr error
	for res := range ch {
		results[res.Index] = res
		seen++
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
			cancel() // drop the rest of the batch
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if seen != len(scenarios) {
		return nil, fmt.Errorf("core: batch incomplete: %d of %d scenarios ran", seen, len(scenarios))
	}
	return results, nil
}

// Run evaluates a single scenario synchronously — the one-point convenience
// form of RunBatch.
func (r *Runner) Run(ctx context.Context, s Scenario) (Result, error) {
	results, err := r.RunAll(ctx, []Scenario{s})
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}
