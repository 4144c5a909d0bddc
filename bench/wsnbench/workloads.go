package main

import (
	"context"
	"fmt"
	"math"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/report"
	"repro/internal/xrand"
)

// env is what every workload receives from the command line.
type env struct {
	seed    uint64
	nproc   int
	workdir string // scratch space inside the checkout
	self    string // this executable, re-executed for process set-up
	ref     reference
	// t is non-nil while a traced phase runs. Runs read it at each op, so
	// the driver can switch tracing on between ops.
	t *tracer
}

// run is one prepared instance of a workload.
type run interface {
	// op runs one operation, checks its output, and returns the latency
	// the workload reports.
	op() (time.Duration, error)
	// layers reports workload-specific per-layer metrics from the spans of
	// a traced phase of ops operations.
	layers(spans []span, ops int) map[string]float64
	// close releases what the run holds between ops.
	close() error
}

// alias reports a metric under a workload-specific name, e.g. suite_s for
// the artifacts workload's op_p50_ms.
type alias struct {
	name, unit string
	value      func(m map[string]float64) float64
}

func scaled(from string, k float64) func(map[string]float64) float64 {
	return func(m map[string]float64) float64 { return m[from] * k }
}

type workload struct {
	name, why string
	// setup runs the workload's set-up procedure once; setup_s is the
	// median time of setupReps repetitions.
	setup   func(e *env) error
	open    func(e *env) (run, error)
	aliases []alias
}

var workloads = []workload{
	{
		name:  "artifacts",
		why:   "the paper's 18 artifacts in-process; mostly the Erlang CTMC solve, the only workload that runs it",
		setup: execReady,
		open:  openArtifacts,
		aliases: []alias{
			{"suite_s", "s", scaled("op_p50_ms", 1e-3)},
		},
	},
	{
		name:  "sweep-cold",
		why:   "Table-4 sweep through a fresh durable coordinator and nproc HTTP workers; every estimate misses the cache",
		setup: serviceSetup,
		open:  func(e *env) (run, error) { return openSweep(e, false) },
		aliases: []alias{
			{"sweep_cold_p50_ms", "ms", scaled("op_p50_ms", 1)},
			{"sweep_cold_p90_ms", "ms", scaled("op_p90_ms", 1)},
		},
	},
	{
		name:  "sweep-warm",
		why:   "the same manifest resubmitted after a cold sweep; every estimate hits the remote cache",
		setup: serviceSetup,
		open:  func(e *env) (run, error) { return openSweep(e, true) },
		aliases: []alias{
			{"sweep_warm_p50_ms", "ms", scaled("op_p50_ms", 1)},
			{"sweep_warm_p90_ms", "ms", scaled("op_p90_ms", 1)},
		},
	},
	fieldWorkload("field-steady", "1000-node tree at sink utilisation 0.5; engine events and the field heap dominate, nothing dies",
		fieldSpec{nodes: 1000, rate: 0.005, battery: energy.AA2850, warmup: 100, horizon: 2000}),
	fieldWorkload("field-10k-setup", "10,000 nodes over a short horizon; compile, per-node session open and finish dominate",
		fieldSpec{nodes: 10000, rate: 0.0005, battery: energy.AA2850, warmup: 20, horizon: 200}),
	fieldWorkload("field-10k-death", "field-10k-setup on 0.35 mAh batteries: ~1,800 deaths, reroutes and drops",
		fieldSpec{nodes: 10000, rate: 0.0005, battery: energy.Battery{CapacitymAh: 0.35, Volts: 3}, warmup: 20, horizon: 200}),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cliOptions are wsnenergy's default experiment options (its modelFlags
// defaults) at the given seed, with the sweep pool sized to nproc.
func cliOptions(seed uint64, nproc int) (experiments.Options, error) {
	cfg := core.PaperConfig()
	cfg.Lambda, cfg.Mu, cfg.PDT, cfg.PUD = 1, 10, 0.5, 0.001
	cfg.SimTime, cfg.Warmup, cfg.Replications = 1000, 100, 10
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return experiments.Options{}, err
	}
	opt := experiments.Default()
	opt.Base = cfg
	opt.PUDs = []float64{0.001, 0.3, 10.0}
	opt.Parallelism = nproc
	return opt, nil
}

// ---------------------------------------------------------------------------
// artifacts

// artifactNames is `wsnenergy -experiment all`, in its order.
var artifactNames = []string{"table1", "table2", "table3", "fig4", "fig5", "table4", "table5",
	"erlang", "policy", "workload", "ctmc", "lifetime", "convergence", "transient", "network",
	"fieldlife", "fieldbreakdown", "fielddeath"}

// renderArtifact computes one artifact and renders it to CSV exactly as
// `wsnenergy -experiment <name> -format csv` does.
func renderArtifact(ctx context.Context, name string, opt experiments.Options) (string, error) {
	var t *report.Table
	var f *report.Figure
	var err error
	switch name {
	case "table1":
		t = experiments.Table1()
	case "table2":
		t = experiments.Table2(opt.Base)
	case "table3":
		t = experiments.Table3(opt.Base.Power)
	case "fig4":
		f, err = experiments.Figure4Ctx(ctx, opt)
	case "fig5":
		f, err = experiments.Figure5Ctx(ctx, opt)
	case "table4":
		t, err = experiments.Table4Ctx(ctx, opt)
	case "table5":
		t, err = experiments.Table5Ctx(ctx, opt)
	case "erlang":
		t, err = experiments.ErlangAblationCtx(ctx, opt, nil)
	case "policy":
		t, err = experiments.PolicyAblation(opt)
	case "workload":
		t, err = experiments.WorkloadComparisonCtx(ctx, opt)
	case "ctmc":
		t, err = experiments.CTMCCrossCheck(opt)
	case "lifetime":
		t, err = experiments.LifetimeCtx(ctx, opt, nil)
	case "convergence":
		t, err = experiments.Convergence(opt, nil)
	case "transient":
		f, err = experiments.Transient(opt, 0, 0, 0)
	case "network":
		t, err = experiments.NetworkLifetime(opt)
	case "fieldlife":
		t, err = experiments.FieldLifetimeCtx(ctx, opt, nil, nil)
	case "fieldbreakdown":
		t, err = experiments.FieldBreakdownCtx(ctx, opt, 0)
	case "fielddeath":
		t, err = experiments.FieldDeathCtx(ctx, opt, 0)
	default:
		return "", fmt.Errorf("unknown artifact %q", name)
	}
	switch {
	case err != nil:
		return "", err
	case f != nil:
		return f.CSV(), nil
	}
	return t.CSV(), nil
}

// execReady is the artifacts set-up procedure: start this executable and
// wait until it has initialized the Go runtime and every package, which is
// what `wsnenergy -experiment all` pays before its first artifact.
func execReady(e *env) error {
	return exec.Command(e.self, "-ready").Run()
}

type artifactsRun struct {
	e      *env
	opt    experiments.Options
	check  checker
	n      int
	tStats [][2]float64  // per traced op: cache hits, cache entries
	tLat   time.Duration // total latency of the traced ops
}

func openArtifacts(e *env) (run, error) {
	opt, err := cliOptions(e.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	return &artifactsRun{e: e, opt: opt, check: newChecker(e.ref, "artifacts", e.seed)}, nil
}

func (r *artifactsRun) op() (time.Duration, error) {
	opt := r.opt
	if r.n == 0 {
		// The first op runs one sweep worker: comparing it with the later
		// nproc-wide ops checks, at any seed, that the output does not
		// depend on scheduling.
		opt.Parallelism = 1
	}
	r.n++
	core.ResetEstimateCache()
	var out strings.Builder
	start := time.Now()
	for i, name := range artifactNames {
		if i > 0 {
			out.WriteByte('\n')
		}
		err := r.e.t.do("experiments."+name, func() error {
			csv, err := renderArtifact(context.Background(), name, opt)
			out.WriteString(csv)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	lat := time.Since(start)
	entries, hits := core.EstimateCacheStats()
	if r.e.t != nil {
		r.tStats = append(r.tStats, [2]float64{float64(hits), float64(entries)})
		r.tLat += lat
	}
	canon, err := canonicalOutput(out.String())
	if err != nil {
		return 0, err
	}
	return lat, r.check.check(digestBytes([]byte(canon)))
}

func (r *artifactsRun) layers(spans []span, ops int) map[string]float64 {
	m := map[string]float64{}
	durs := durations(spans, anySpan)
	for _, name := range artifactNames {
		m["experiments."+name+"_ms"] = median(durs["experiments."+name])
	}
	var hits, entries []float64
	for _, s := range r.tStats {
		hits, entries = append(hits, s[0]), append(entries, s[1])
	}
	m["core.cache_hits"], m["core.cache_entries"] = median(hits), median(entries)
	// The share of the traced ops' time spent inside artifact spans.
	var self time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "experiments.") {
			self += s.dur()
		}
	}
	if r.tLat > 0 {
		m["experiments.span_ratio"] = float64(self) / float64(r.tLat)
	}
	return m
}

func (r *artifactsRun) close() error { return nil }

// ---------------------------------------------------------------------------
// fields

// fieldSpec parameterizes a generated field workload.
type fieldSpec struct {
	nodes           int
	rate            float64 // samples/s per node
	battery         energy.Battery
	warmup, horizon float64
}

// treeNodes lays out an n-node fanout-4 tree: node i's parent is (i-1)/4
// and every hop is exactly 10 m long, at an angle drawn from the seed.
// field.TreeTopology is not used: it spreads row d at a fixed spacing, so
// hop length grows with the row's width (up to 4.9 km in a 1000-node tree
// at 10 m spacing) and starved batteries die at the first far transmit.
func treeNodes(n int, rate float64, seed uint64) []field.Node {
	r := xrand.New(seed)
	nodes := make([]field.Node, n)
	for i := range nodes {
		nodes[i] = field.Node{ID: i, SampleRate: rate}
		if i == 0 {
			continue
		}
		p := (i - 1) / 4
		a := 2 * math.Pi * r.Float64()
		nodes[i].Parent = p
		nodes[i].Pos = field.Position{X: nodes[p].Pos.X + 10*math.Cos(a), Y: nodes[p].Pos.Y + 10*math.Sin(a)}
	}
	return nodes
}

func (s fieldSpec) config(seed uint64) field.Config {
	cfg := field.DefaultConfig(treeNodes(s.nodes, s.rate, seed))
	cfg.Battery = s.battery
	cfg.Warmup, cfg.Horizon = s.warmup, s.horizon
	cfg.Seed = seed
	return cfg
}

// nodeSeconds is the simulated node-seconds of one run.
func (s fieldSpec) nodeSeconds() float64 { return float64(s.nodes) * (s.warmup + s.horizon) }

func fieldWorkload(name, why string, spec fieldSpec) workload {
	return workload{
		name: name,
		why:  why,
		// Set-up is a run at a 1 µs horizon: compile, open every session,
		// finish.
		setup: func(e *env) error {
			cfg := spec.config(e.seed)
			cfg.Warmup, cfg.Horizon = 0, 1e-6
			return e.t.do("field.setup", func() error {
				_, err := field.Simulate(cfg)
				return err
			})
		},
		open: func(e *env) (run, error) {
			return &fieldRun{e: e, spec: spec, cfg: spec.config(e.seed), check: newChecker(e.ref, name, e.seed)}, nil
		},
		aliases: []alias{
			{"run_p50_ms", "ms", scaled("op_p50_ms", 1)},
			// Simulated node-seconds per host second of a median run.
			{"node_s_per_s", "1/s", func(m map[string]float64) float64 { return spec.nodeSeconds() / (m["op_p50_ms"] / 1e3) }},
		},
	}
}

type fieldRun struct {
	e     *env
	spec  fieldSpec
	cfg   field.Config
	check checker
	first *field.Result
}

func (r *fieldRun) op() (time.Duration, error) {
	var res *field.Result
	start := time.Now()
	err := r.e.t.do("field.simulate", func() error {
		var err error
		res, err = field.Simulate(r.cfg)
		return err
	})
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if err := fieldInvariants(res); err != nil {
		return 0, err
	}
	if r.first == nil {
		r.first = res
	}
	return lat, r.check.check(digest(*res))
}

func (r *fieldRun) layers(spans []span, ops int) map[string]float64 {
	durs := durations(spans, anySpan)
	setup, full := median(durs["field.setup"]), median(durs["field.simulate"])
	m := map[string]float64{
		"field.setup_ms":             setup,
		"field.setup_us_per_node":    setup * 1e3 / float64(r.spec.nodes),
		"field.steady_ns_per_node_s": (full - setup) * 1e6 / r.spec.nodeSeconds(),
	}
	if res := r.first; res != nil {
		var samples uint64
		for _, n := range res.Nodes {
			samples += n.Samples
		}
		m["field.deaths"] = float64(len(res.Deaths))
		m["field.dropped_in_flight"] = float64(res.DroppedInFlight)
		m["field.dropped_no_route"] = float64(res.DroppedNoRoute)
		m["field.delivery_ratio"] = float64(res.Delivered) / float64(samples)
	}
	return m
}

func (r *fieldRun) close() error { return nil }
