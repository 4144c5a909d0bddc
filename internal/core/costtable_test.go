package core

import (
	"context"
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// sleepEstimator burns a fixed wall-clock duration per run (respecting
// cancellation) and counts invocations — a deterministic way to train a
// Runner's cost model and to hold a unit in flight past a deadline.
type sleepEstimator struct {
	d     time.Duration
	calls *atomic.Int64
}

func (s sleepEstimator) Name() string { return "sleepy" }

func (s sleepEstimator) Estimate(cfg Config) (*Estimate, error) {
	return s.EstimateContext(context.Background(), cfg)
}

func (s sleepEstimator) EstimateContext(ctx context.Context, cfg Config) (*Estimate, error) {
	s.calls.Add(1)
	select {
	case <-time.After(s.d):
		return &Estimate{Method: "sleepy", EnergyJ: cfg.PDT}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// trainRunner runs one scenario without a deadline so the Runner's cost
// model learns the estimator's duration.
func trainRunner(t *testing.T, r *Runner, cfg Config) {
	t.Helper()
	if _, err := r.RunAll(context.Background(), []Scenario{{Name: "train", Config: cfg}}); err != nil {
		t.Fatal(err)
	}
}

// trainedSleepy trains a fresh sleepEstimator Runner on cfg and returns
// its cost snapshot and the estimator's id in it.
func trainedSleepy(t *testing.T, d time.Duration, cfg Config) (CostTable, string) {
	t.Helper()
	est := sleepEstimator{d: d, calls: new(atomic.Int64)}
	r, err := NewRunner(WithConfig(PaperConfig()), WithEstimators(est), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	trainRunner(t, r, cfg)
	return r.CostSnapshot(), estimatorID(est)
}

// TestCostModelEWMA pins the Runner's moving-average fold — the same rule
// CostTable.Merge applies — and the min(work-scaled, absolute) price.
func TestCostModelEWMA(t *testing.T) {
	var r Runner
	if _, ok := r.CostSnapshot().PredictSeconds("x", 1); ok {
		t.Fatal("empty model predicted")
	}
	predict := func(work float64) float64 {
		t.Helper()
		secs, ok := r.CostSnapshot().PredictSeconds("x", work)
		if !ok {
			t.Fatal("trained model did not predict")
		}
		return secs
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12 }
	r.costs.observe("x", 100*time.Millisecond, 1)
	if got := predict(1); !near(got, 0.1) {
		t.Fatalf("first observation: %v s, want 0.1", got)
	}
	r.costs.observe("x", 300*time.Millisecond, 1)
	if got := predict(1); !near(got, 0.2) {
		t.Fatalf("EWMA fold: %v s, want 0.2", got)
	}
	// Scaling a trained model up is capped by the absolute average (the
	// analytic-solver case: O(1) cost must not extrapolate linearly)...
	if got := predict(10); !near(got, 0.2) {
		t.Fatalf("scale-up must cap at the absolute EWMA: %v s, want 0.2", got)
	}
	// ...while scaling down follows the per-work rate (the simulator
	// case: short scenarios predict proportionally cheaper).
	if got := predict(0.01); !near(got, 0.002) {
		t.Fatalf("work scaling down: %v s, want 0.002", got)
	}
	// Observing and merging are one rule: the two observations folded as
	// worker reports give the same sample bit for bit.
	merged := CostTable{"x": {PerWorkSeconds: 0.1, AbsSeconds: 0.1}}.
		Merge(CostTable{"x": {PerWorkSeconds: 0.3, AbsSeconds: 0.3}})
	if got := r.CostSnapshot()["x"]; got != merged["x"] {
		t.Fatalf("observe folded to %+v, Merge to %+v", got, merged["x"])
	}
	// Observing an estimator the model already knows does not allocate.
	if allocs := testing.AllocsPerRun(100, func() {
		r.costs.observe("x", time.Millisecond, 1)
	}); allocs != 0 {
		t.Fatalf("observe allocates %v times per run", allocs)
	}
}

// TestDeadlineSkipAnalyticScaleUp: an estimator whose cost does NOT grow
// with the horizon (analytic solvers), trained on a short scenario, must
// not be priced by linear extrapolation on a long-horizon one — the
// absolute cost caps the work-scaled estimate, so a partition plan does
// not mistake an O(1) solve for the sweep's bottleneck. (The rule first
// guarded deadline skipping, hence the name.)
func TestDeadlineSkipAnalyticScaleUp(t *testing.T) {
	short := PaperConfig()
	short.SimTime = 10
	short.Warmup = 0
	short.Replications = 1
	table, id := trainedSleepy(t, 20*time.Millisecond, short)
	sample := table[id]
	if sample.AbsSeconds < 0.02 {
		t.Fatalf("trained absolute cost %v s, want >= the 20 ms run", sample.AbsSeconds)
	}

	long := short
	long.SimTime = 100000 // 10000x the work: linear extrapolation says >= 200 s
	if lin := sample.PerWorkSeconds * ConfigWork(long); lin < 100 {
		t.Fatalf("work-scaled price %v s, want a linear blow-up", lin)
	}
	got := table.ScenarioSeconds(long, []string{id})
	if got != sample.AbsSeconds {
		t.Fatalf("long scenario priced %v s, want the absolute cap %v s", got, sample.AbsSeconds)
	}
	if secs, ok := table.PredictSeconds(id, ConfigWork(long)); !ok || secs != got {
		t.Fatalf("PredictSeconds = (%v, %v), want ScenarioSeconds' %v", secs, ok, got)
	}
}

// TestDeadlineSkipScalesWithWork: a model trained on an expensive
// long-horizon scenario prices a short-horizon one per unit of simulated
// work, so a scenario asking for ~10^6x less work is priced ~10^6x
// cheaper — the direction of the error is toward under-pricing, never
// over-pricing. (The rule first guarded deadline skipping, hence the
// name.)
func TestDeadlineSkipScalesWithWork(t *testing.T) {
	long := PaperConfig()
	long.SimTime = 100000
	table, id := trainedSleepy(t, 20*time.Millisecond, long)
	sample := table[id]

	short := PaperConfig()
	short.SimTime = 1
	short.Warmup = 0
	short.Replications = 1
	got := table.ScenarioSeconds(short, []string{id})
	if want := sample.PerWorkSeconds * ConfigWork(short); got != want {
		t.Fatalf("short scenario priced %v s, want the work-scaled %v s", got, want)
	}
	if got <= 0 || got > sample.AbsSeconds/1e5 {
		t.Fatalf("short scenario priced %v s against a %v s training run", got, sample.AbsSeconds)
	}
}

// TestCostSnapshotExport: running scenarios trains the model, and the
// snapshot prices work with the min(work-scaled, absolute) rule.
func TestCostSnapshotExport(t *testing.T) {
	cfg := PaperConfig()
	cfg.SimTime = 20
	cfg.Warmup = 2
	cfg.Replications = 1
	r, err := NewRunner(WithConfig(cfg), WithMethods("markov"), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.CostSnapshot(); len(got) != 0 {
		t.Fatalf("untrained snapshot not empty: %+v", got)
	}
	if _, err := r.Run(context.Background(), Scenario{Name: "train"}); err != nil {
		t.Fatal(err)
	}
	table := r.CostSnapshot()
	ids, err := EstimatorIDs("markov")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("EstimatorIDs = %v", ids)
	}
	sample, ok := table[ids[0]]
	if !ok {
		t.Fatalf("snapshot %v has no sample under id %q", table, ids[0])
	}
	if sample.AbsSeconds <= 0 || sample.PerWorkSeconds <= 0 {
		t.Fatalf("non-positive trained sample: %+v", sample)
	}
	// The price is min(work-scaled, absolute).
	secs, ok := table.PredictSeconds(ids[0], ConfigWork(cfg))
	if !ok || secs <= 0 {
		t.Fatalf("PredictSeconds = (%v, %v)", secs, ok)
	}
	if secs > sample.AbsSeconds+1e-12 {
		t.Fatalf("prediction %v exceeds absolute estimate %v", secs, sample.AbsSeconds)
	}
	if s := table.ScenarioSeconds(cfg, ids); s != secs {
		t.Fatalf("ScenarioSeconds %v != single-estimator prediction %v", s, secs)
	}
	if s := table.ScenarioSeconds(cfg, []string{"unknown"}); s != 0 {
		t.Fatalf("unsampled estimator priced at %v, want 0", s)
	}
	// The snapshot is a copy: mutating it does not touch the Runner.
	table[ids[0]] = CostSample{}
	if again := r.CostSnapshot(); again[ids[0]].AbsSeconds != sample.AbsSeconds {
		t.Fatal("snapshot aliases the Runner's model")
	}
}

// TestCostTableMergeAndJSON: Merge follows the EWMA rule and the table
// round-trips through its wire form.
func TestCostTableMergeAndJSON(t *testing.T) {
	a := CostTable{"e1": {PerWorkSeconds: 2, AbsSeconds: 4}}
	b := CostTable{
		"e1": {PerWorkSeconds: 4, AbsSeconds: 8},
		"e2": {PerWorkSeconds: 1, AbsSeconds: 1},
	}
	merged := a.Merge(b)
	if got := merged["e1"]; got.PerWorkSeconds != 3 || got.AbsSeconds != 6 {
		t.Fatalf("EWMA merge: %+v", got)
	}
	if got := merged["e2"]; got != b["e2"] {
		t.Fatalf("new sample not adopted: %+v", got)
	}
	data, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	var back CostTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back["e1"] != merged["e1"] || back["e2"] != merged["e2"] {
		t.Fatalf("JSON round trip changed the table: %+v", back)
	}
}

// TestEstimatorIDsUnknown: unknown specs fail loudly.
func TestEstimatorIDsUnknown(t *testing.T) {
	if _, err := EstimatorIDs("quantum"); err == nil {
		t.Fatal("unknown method accepted")
	}
}
