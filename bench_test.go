// Benchmarks regenerating every table and figure of the paper, plus the
// engine micro-benchmarks. Each paper benchmark runs a reduced-effort but
// structurally complete version of the experiment (full sweeps with a
// shorter horizon), so `go test -bench=.` both times the harness and
// exercises every code path behind EXPERIMENTS.md.
package repro_test

import (
	"context"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/petri"
	"repro/internal/sensornode"
	"repro/internal/shard"
	"repro/internal/sweepd"
	"repro/internal/xrand"
)

// benchOptions returns reduced-effort sweep options sized for benchmarking.
func benchOptions() experiments.Options {
	opt := experiments.Default()
	opt.Base.SimTime = 200
	opt.Base.Warmup = 20
	opt.Base.Replications = 2
	return opt
}

func BenchmarkTable1Structure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4Ctx(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5Ctx(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	opt := benchOptions()
	opt.PDTs = []float64{0, 0.5, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4Ctx(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	opt := benchOptions()
	opt.PDTs = []float64{0, 0.5, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5Ctx(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErlangAblation(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ErlangAblationCtx(context.Background(), opt, []int{1, 8, 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyAblation(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyAblation(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadComparison(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WorkloadComparisonCtx(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCTMCCrossCheck(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CTMCCrossCheck(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLifetime(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LifetimeCtx(context.Background(), opt, []float64{1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Runner batch benchmarks: the Figure-4 PDT sweep through RunBatch at
// different worker counts, seeding the sequential-vs-parallel perf
// trajectory.

func benchmarkRunBatch(b *testing.B, parallelism int) {
	cfg := repro.PaperConfig()
	cfg.SimTime = 200
	cfg.Warmup = 20
	cfg.Replications = 2
	// Memoization off: the sequential and parallel variants replay the
	// same effective configs (as do b.N ramp-up rounds and -count reruns),
	// and this benchmark must measure evaluation, not cache lookups —
	// BenchmarkRunBatchMemoized covers the cached path.
	runner, err := repro.New(
		repro.WithConfig(cfg),
		repro.WithSeed(1),
		repro.WithParallelism(parallelism),
		repro.WithCache(false),
	)
	if err != nil {
		b.Fatal(err)
	}
	// The Figure-4 x axis: PDT from 0 to 1 in 0.1 steps at PUD = 1 ms.
	scenarios := make([]repro.Scenario, 11)
	for i := range scenarios {
		c := cfg
		c.PDT = 0.1 * float64(i)
		scenarios[i] = repro.Scenario{Config: c}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh per-iteration seed gives every scenario a new result
		// cache key, so the benchmark measures actual evaluation rather
		// than memoized lookups (see BenchmarkRunBatchMemoized for those).
		for j := range scenarios {
			scenarios[j].Config.Seed = uint64(i + 1)
		}
		if _, err := runner.RunAll(ctx, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunBatchSequential(b *testing.B) { benchmarkRunBatch(b, 1) }

func BenchmarkRunBatchParallel(b *testing.B) { benchmarkRunBatch(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRunBatchMemoized times the Figure-4 sweep when every grid point
// is already in the result cache — the cost Figure 5 pays after Figure 4
// has run.
func BenchmarkRunBatchMemoized(b *testing.B) {
	cfg := repro.PaperConfig()
	cfg.SimTime = 200
	cfg.Warmup = 20
	cfg.Replications = 2
	runner, err := repro.New(repro.WithConfig(cfg), repro.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	scenarios := make([]repro.Scenario, 11)
	for i := range scenarios {
		c := cfg
		c.PDT = 0.1 * float64(i)
		scenarios[i] = repro.Scenario{Config: c}
	}
	ctx := context.Background()
	if _, err := runner.RunAll(ctx, scenarios); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunAll(ctx, scenarios); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks

// BenchmarkPetriEngineCPU measures raw EDSPN execution speed on the
// Figure-3 net: one simulated 1000 s day of the paper's workload. The net
// is compiled once outside the loop — the usage pattern of the replication
// and sweep layers, which compile a net once per replication set.
func BenchmarkPetriEngineCPU(b *testing.B) {
	cfg := core.PaperConfig()
	c, err := petri.Compile(core.BuildCPUNet(cfg))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Simulate(petri.SimOptions{Seed: uint64(i), Duration: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPetriCompile measures the one-time Compile step itself.
func BenchmarkPetriCompile(b *testing.B) {
	n := core.BuildCPUNet(core.PaperConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := petri.Compile(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationEstimator measures the event-driven simulator via the
// public estimator API.
func BenchmarkSimulationEstimator(b *testing.B) {
	cfg := core.PaperConfig()
	cfg.SimTime = 1000
	cfg.Warmup = 0
	cfg.Replications = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := (core.Simulation{}).Estimate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovEstimator measures the closed-form evaluation (it should
// be orders of magnitude faster than any simulation — the paper's stated
// advantage of analytic models).
func BenchmarkMarkovEstimator(b *testing.B) {
	cfg := core.PaperConfig()
	for i := 0; i < b.N; i++ {
		if _, err := (core.Markov{}).Estimate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTMCSolveExpNet measures exact reachability + stationary solve
// of the exponentialized CPU net.
func BenchmarkCTMCSolveExpNet(b *testing.B) {
	cfg := core.PaperConfig()
	cfg.PUD = 0.3
	n := core.BuildCPUNetExp(cfg, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := petri.SolveCTMC(n, petri.ReachOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientCPU measures replicated transient analysis of the
// Figure-3 net (experiment X-7).
func BenchmarkTransientCPU(b *testing.B) {
	cfg := core.PaperConfig()
	n := core.BuildCPUNet(cfg)
	for i := 0; i < b.N; i++ {
		if _, err := petri.SimulateTransient(n, petri.TransientOptions{
			Seed: uint64(i), Horizon: 10, Step: 1, Replications: 50,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedNet measures the closed-workload net (experiment X-8),
// compiled once.
func BenchmarkClosedNet(b *testing.B) {
	cfg := core.PaperConfig()
	c, err := petri.Compile(core.BuildClosedCPUNet(cfg, 3, 1.0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Simulate(petri.SimOptions{Seed: uint64(i), Duration: 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkLifetime measures the X-9 topology analysis.
func BenchmarkNetworkLifetime(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NetworkLifetime(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSimulate measures the event-driven field simulator on a
// 100-node 4-ary tree: 100 compiled nets under one scheduler, every
// delivered packet relayed hop by hop to the sink. The topology is built
// once outside the loop — the usage pattern of the field estimator, which
// reuses one placed node set across scenarios.
func BenchmarkFieldSimulate(b *testing.B) {
	nodes := field.TreeTopology(100, 4, 0.05, 10)
	cfg := field.DefaultConfig(nodes)
	cfg.Horizon = 50
	cfg.Warmup = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := field.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSimulate1000 scales the field simulator to a 1000-node
// 4-ary tree over a shorter horizon: same per-event work, 10x the sessions
// under one global scheduler, so it regresses on anything superlinear in
// node count (scheduler merging, per-session bookkeeping) that the 100-node
// benchmark would hide.
func BenchmarkFieldSimulate1000(b *testing.B) {
	nodes := field.TreeTopology(1000, 4, 0.05, 10)
	cfg := field.DefaultConfig(nodes)
	cfg.Horizon = 10
	cfg.Warmup = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := field.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSimulateDeath measures the field simulator's depletion
// path: the same 100-node 4-ary tree as BenchmarkFieldSimulate but on
// batteries starved so nodes start dying mid-run — the run prices death
// scheduling, session teardown at the crossing, subtree rerouting and the
// orphaned-traffic bookkeeping on top of the healthy-field baseline.
func BenchmarkFieldSimulateDeath(b *testing.B) {
	nodes := field.TreeTopology(100, 4, 0.05, 10)
	cfg := field.DefaultConfig(nodes)
	cfg.Horizon = 50
	cfg.Warmup = 5
	// ~2 J at 3 V: the busiest nodes cross zero around the middle of the
	// run, so a healthy prefix and a decaying suffix are both exercised.
	cfg.Battery = energy.Battery{CapacitymAh: 0.19, Volts: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := field.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deaths) == 0 {
			b.Fatal("death benchmark ran without deaths")
		}
	}
}

// BenchmarkFieldSimulate10k measures the field simulator at 10,000 nodes:
// a fanout-4 tree with 10 m hops on 0.35 mAh batteries over a 20 s warmup
// and 200 s horizon, so ~1,800 nodes die and their subtrees reroute. ns/op
// is the whole run. setup-ms is a run of the same field to a 1 µs horizon
// (compile, open every session, finish), timed outside the loop timer, and
// steady-ns/node-s prices what the full run adds beyond it per simulated
// node-second.
func BenchmarkFieldSimulate10k(b *testing.B) {
	const nodes, warmup, horizon = 10000, 20, 200
	r := xrand.New(1)
	tree := make([]field.Node, nodes)
	for i := range tree {
		tree[i] = field.Node{ID: i, SampleRate: 0.0005}
		if i == 0 {
			continue
		}
		p := (i - 1) / 4
		a := 2 * math.Pi * r.Float64()
		tree[i].Parent = p
		tree[i].Pos = field.Position{X: tree[p].Pos.X + 10*math.Cos(a), Y: tree[p].Pos.Y + 10*math.Sin(a)}
	}
	cfg := field.DefaultConfig(tree)
	cfg.Battery = energy.Battery{CapacitymAh: 0.35, Volts: 3}
	cfg.Warmup, cfg.Horizon = warmup, horizon
	setupCfg := cfg
	setupCfg.Warmup, setupCfg.Horizon = 0, 1e-6
	var setup, full time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		setupCfg.Seed = cfg.Seed
		b.StopTimer()
		start := time.Now()
		if _, err := field.Simulate(setupCfg); err != nil {
			b.Fatal(err)
		}
		setup += time.Since(start)
		b.StartTimer()
		start = time.Now()
		res, err := field.Simulate(cfg)
		full += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deaths) == 0 {
			b.Fatal("10k-node benchmark ran without deaths")
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(setup)/1e6/n, "setup-ms")
	b.ReportMetric(float64(full-setup)/n/(nodes*(warmup+horizon)), "steady-ns/node-s")
}

// BenchmarkSensorNode measures the composite CPU+radio net.
func BenchmarkSensorNode(b *testing.B) {
	cfg := sensornode.DefaultConfig()
	cfg.CPU.SimTime = 500
	cfg.CPU.Warmup = 0
	for i := 0; i < b.N; i++ {
		cfg.CPU.Seed = uint64(i)
		if _, err := sensornode.Estimate(cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSweepLocal measures a warm resubmission through the sweep
// service: an in-process coordinator and one worker over loopback HTTP,
// submitting a whole Figure 5 sweep per iteration. A first, untimed sweep
// fills the coordinator's result cache, so every timed sweep is resolved
// at submit from that cache — the timer covers submit-time resolution
// (cache lookups and the resolved result set), status polling and the
// merge; no partition is leased.
func BenchmarkServeSweepLocal(b *testing.B) {
	benchServeSweep(b, false)
}

// BenchmarkServeSweepLeased is BenchmarkServeSweepLocal with the
// coordinator's cache emptied before every sweep, outside the timer, so
// every timed sweep is leased partition by partition: the timer covers
// the lease protocol — submit, lease, the worker's markov estimates,
// result submission and the coordinator storing them, merge, status
// polling.
func BenchmarkServeSweepLeased(b *testing.B) {
	benchServeSweep(b, true)
}

// benchServeSweep times Figure 5 sweeps through an in-process coordinator
// and one worker: warm resubmissions, or cold sweeps when leased is set.
func benchServeSweep(b *testing.B, leased bool) {
	coord := sweepd.NewCoordinator(sweepd.Options{DefaultPartitions: 4})
	srv := httptest.NewServer(sweepd.Handler(coord))
	defer srv.Close()

	cfg := repro.PaperConfig()
	cfg.SimTime = 30
	cfg.Warmup = 3
	cfg.Replications = 1
	spec := shard.RunnerSpec{Base: cfg, Seed: cfg.Seed, Methods: []string{"markov"}, DeriveSeeds: true}
	scenarios := make([]core.Scenario, 12)
	for i := range scenarios {
		c := cfg
		c.PDT = 0.1 * float64(i)
		scenarios[i] = core.Scenario{Config: c}
	}
	manifest, err := shard.NewManifest("bench", spec, scenarios, 1)
	if err != nil {
		b.Fatal(err)
	}
	client, err := sweepd.NewClient(srv.URL, srv.Client())
	if err != nil {
		b.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- sweepd.Work(ctx, sweepd.WorkerOptions{
			Coordinator: srv.URL,
			Name:        "bench",
			Parallelism: 2,
			Client:      srv.Client(),
			Backoff:     sweepd.Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond, Factor: 2},
		})
	}()
	runSweep := func() {
		id, err := client.Submit(sweepd.SubmitRequest{Manifest: manifest})
		if err != nil {
			b.Fatal(err)
		}
		for {
			st, err := client.SweepStatus(id)
			if err != nil {
				b.Fatal(err)
			}
			if st.State == sweepd.StateDone {
				return
			}
			if st.State == sweepd.StateFailed {
				b.Fatalf("sweep failed: %s", st.Error)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	runSweep() // warm the result cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if leased {
			b.StopTimer()
			if err := coord.Cache().Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		runSweep()
	}
	b.StopTimer()
	coord.Drain()
	cancel()
	<-workerDone
}
