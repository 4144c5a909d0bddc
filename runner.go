package repro

import (
	"repro/internal/core"
)

// Scenario is one evaluation point of a batch: a named model configuration.
// A zero-valued Config means "use the Runner's base configuration"; for a
// variation on the base, copy Runner.BaseConfig and modify it:
//
//	c := runner.BaseConfig()
//	c.PDT = 0.3
//	s := repro.Scenario{Name: "PDT=0.3", Config: c}
type Scenario = core.Scenario

// Result is the outcome of one scenario: the scenario's index in the batch,
// its effective seed, one Estimate per estimator, or an error.
type Result = core.Result

// Runner evaluates batches of scenarios across a fixed estimator set with a
// bounded worker pool. Construct it with New; a Runner is safe for
// concurrent use and reusable across batches. RunBatch streams results in
// completion order with context cancellation; RunAll collects them in input
// order.
type Runner = core.Runner

// Option configures a Runner under construction; see WithConfig, WithSeed,
// WithParallelism, WithEstimators and WithMethods.
type Option = core.RunnerOption

// New builds a Runner from functional options.
func New(opts ...Option) (*Runner, error) { return core.NewRunner(opts...) }

// WithConfig sets the base model configuration (default PaperConfig).
func WithConfig(cfg Config) Option { return core.WithConfig(cfg) }

// WithSeed sets the master seed from which every scenario's RNG seed is
// derived (default: the base configuration's seed). Two Runners with equal
// seeds produce bit-identical results for equal batches, at any parallelism.
func WithSeed(seed uint64) Option { return core.WithSeed(seed) }

// WithParallelism bounds the number of (scenario, estimator) pairs
// evaluated concurrently (default runtime.GOMAXPROCS(0); 1 forces
// sequential execution). It is the only parallelism knob: an estimate's
// replications run one after another.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithEstimators sets the estimator list (default Methods(), the paper's
// three in presentation order).
func WithEstimators(ests ...Estimator) Option { return core.WithEstimators(ests...) }

// WithMethods resolves estimators by registered name through the registry,
// e.g. WithMethods("sim", "markov", "erlang32").
func WithMethods(specs ...string) Option { return core.WithMethods(specs...) }

// WithCache enables or disables result memoization (default enabled): a
// scenario whose effective configuration and estimator name match a
// previously computed result returns the cached Estimate instead of
// re-running the estimator. Disable it for estimators whose Name does not
// uniquely identify a pure function of the Config.
func WithCache(enabled bool) Option { return core.WithCache(enabled) }

// WithSeedDerivation enables or disables per-scenario seed derivation
// (default enabled). Disable it for fixed-seed experiments where every
// scenario must run with its Config.Seed exactly as given — the contract
// of the extension experiments and of one-off method comparisons.
func WithSeedDerivation(enabled bool) Option { return core.WithSeedDerivation(enabled) }

// CacheBackend stores memoized estimator results behind the Runner; see
// NewMemoryCacheBackend and NewFileCacheBackend for the built-in
// implementations. Backends must be safe for concurrent use.
type CacheBackend = core.CacheBackend

// CacheKey identifies one memoized estimator result: effective Config,
// method name, and estimator implementation identity. Encode/Hash yield
// its canonical, versioned wire form for shared stores.
type CacheKey = core.CacheKey

// CacheStats reports a backend's entry and hit counts.
type CacheStats = core.CacheStats

// NewMemoryCacheBackend returns a fresh process-local result cache bounded
// to 65536 entries by least-recently-used eviction — the same
// implementation as the process-wide default, but private to the Runners
// it is handed to. Evicted entries are counted in CacheStats.Evictions.
func NewMemoryCacheBackend() CacheBackend { return core.NewMemoryBackend() }

// NewFileCacheBackend opens (creating if needed) a file-backed result
// cache rooted at dir, shareable across processes — the backend behind
// `wsnenergy serve -cache` and `wsnenergy work -local-cache`.
func NewFileCacheBackend(dir string) (CacheBackend, error) { return core.NewFileBackend(dir) }

// WithCacheBackend routes the Runner's result memoization through a
// specific backend instead of the process-wide default — typically a
// file-backed cache shared with the other worker processes of the same
// sweep.
func WithCacheBackend(b CacheBackend) Option { return core.WithCacheBackend(b) }

// ResetEstimateCache empties the process-wide default result cache. A
// Runner configured with its own backend via WithCacheBackend is
// unaffected — reset that one with Runner.ResetEstimateCache, which goes
// through whatever backend the Runner actually uses.
func ResetEstimateCache() { core.ResetEstimateCache() }
