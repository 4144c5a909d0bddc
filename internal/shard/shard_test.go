package shard

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
)

// grid builds a small Figure-4-style scenario batch.
func grid(n int) []core.Scenario {
	out := make([]core.Scenario, n)
	for i := range out {
		cfg := core.PaperConfig()
		cfg.PDT = float64(i) / 10
		out[i] = core.Scenario{Name: string(rune('a' + i)), Config: cfg}
	}
	return out
}

// TestPlanPartitionProperty: for a range of batch sizes and shard counts,
// the plan must cover every scenario exactly once, in order, with balanced
// shard sizes — and be deterministic.
func TestPlanPartitionProperty(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 7, 11, 33} {
		for _, n := range []int{1, 2, 3, 5, 8, 40} {
			scenarios := grid(total)
			shards, err := Plan(scenarios, n)
			if err != nil {
				t.Fatalf("total=%d n=%d: %v", total, n, err)
			}
			if len(shards) != n {
				t.Fatalf("total=%d n=%d: %d shards", total, n, len(shards))
			}
			next := 0
			minSize, maxSize := total, 0
			for i, s := range shards {
				if s.Index != i {
					t.Fatalf("shard %d has index %d", i, s.Index)
				}
				if len(s.Items) < minSize {
					minSize = len(s.Items)
				}
				if len(s.Items) > maxSize {
					maxSize = len(s.Items)
				}
				for _, it := range s.Items {
					if it.Index != next {
						t.Fatalf("total=%d n=%d: expected global index %d, got %d", total, n, next, it.Index)
					}
					if it.Name != scenarios[next].Name || it.Config != scenarios[next].Config {
						t.Fatalf("item %d does not match its scenario", next)
					}
					next++
				}
			}
			if next != total {
				t.Fatalf("total=%d n=%d: plan covers %d scenarios", total, n, next)
			}
			if total >= n && maxSize-minSize > 1 {
				t.Fatalf("total=%d n=%d: unbalanced plan (min %d, max %d)", total, n, minSize, maxSize)
			}
			// Determinism: replanning yields the identical partition.
			again, _ := Plan(scenarios, n)
			for i := range shards {
				if len(again[i].Items) != len(shards[i].Items) {
					t.Fatalf("replan changed shard %d", i)
				}
			}
		}
	}
	if _, err := Plan(grid(3), 0); err == nil {
		t.Fatal("Plan accepted 0 shards")
	}
}

// roundTrip encodes v to JSON and decodes it into out, as a manifest or
// result set crosses the wire between sweep client, coordinator and
// workers.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

// TestManifestRoundTrip: encode → decode restores the plan, and the
// decoded manifest validates.
func TestManifestRoundTrip(t *testing.T) {
	spec := RunnerSpec{Base: core.PaperConfig(), Seed: 42, Methods: []string{"markov"}, DeriveSeeds: true}
	m, err := NewManifest("table4", spec, grid(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	roundTrip(t, m, &got)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != "table4" || got.Total != 5 || len(got.Shards) != 2 {
		t.Fatalf("round trip changed the manifest: %+v", got)
	}
	if got.Runner.Seed != 42 || got.Runner.Methods[0] != "markov" || !got.Runner.DeriveSeeds {
		t.Fatalf("round trip changed the runner spec: %+v", got.Runner)
	}
	if got.Shards[1].Items[0].Config != m.Shards[1].Items[0].Config {
		t.Fatal("round trip changed a scenario config")
	}
}

// TestManifestValidation: version mismatches and broken coverage survive
// the JSON round trip and are rejected by Validate.
func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"version", func(m *Manifest) { m.Version = ManifestVersion + 1 }, "version"},
		{"dup", func(m *Manifest) { m.Shards[1].Items[0].Index = 0 }, "more than one shard"},
		{"missing", func(m *Manifest) { m.Shards[1].Items = m.Shards[1].Items[:1] }, "covers"},
		{"range", func(m *Manifest) { m.Shards[0].Items[0].Index = 99 }, "outside"},
		{"shardidx", func(m *Manifest) { m.Shards[0].Index = 5 }, "carries index"},
	}
	for _, tc := range cases {
		m, err := NewManifest("fig4", RunnerSpec{Base: core.PaperConfig(), Seed: 1, Methods: []string{"markov"}}, grid(4), 2)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		var got Manifest
		roundTrip(t, m, &got)
		if err := got.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// mkResult builds one successful core.Result.
func mkResult(index int, energyJ float64) core.Result {
	return core.Result{
		Index:     index,
		Scenario:  core.Scenario{Name: "s"},
		Seed:      uint64(index),
		Estimates: []*core.Estimate{{Method: "m", EnergyJ: energyJ}},
	}
}

// mkManifest plans a batch matching mkResult's scenarios (name "s", zero
// config) for the merge tests.
func mkManifest(t *testing.T, total int) *Manifest {
	t.Helper()
	scenarios := make([]core.Scenario, total)
	for i := range scenarios {
		scenarios[i] = core.Scenario{Name: "s"}
	}
	m, err := NewManifest("", RunnerSpec{Base: core.PaperConfig(), Methods: []string{"markov"}}, scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestResultSetRoundTripAndMerge(t *testing.T) {
	rs0, err := NewResultSet(0, []core.Result{mkResult(0, 1), mkResult(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	rs1, err := NewResultSet(1, []core.Result{mkResult(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	back := &ResultSet{}
	roundTrip(t, rs0, back)
	if back.Version != ResultSetVersion || back.ShardIndex != 0 || len(back.Results) != 2 || back.Results[1].Estimates[0].EnergyJ != 3 {
		t.Fatalf("result set round trip: %+v", back)
	}

	merged, err := Merge(mkManifest(t, 3), []*ResultSet{back, rs1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if merged[i].Index != i || merged[i].Estimates[0].EnergyJ != want {
			t.Fatalf("merged[%d] = %+v, want energy %v", i, merged[i], want)
		}
	}
}

func TestMergeDetectsConflicts(t *testing.T) {
	m := mkManifest(t, 2)
	a, _ := NewResultSet(0, []core.Result{mkResult(0, 1), mkResult(1, 2)})
	// Shard 1 reports scenario 1 with a different estimate: with
	// content-derived seeding this can only mean diverging workers.
	b, _ := NewResultSet(1, []core.Result{mkResult(1, 99)})
	if _, err := Merge(m, []*ResultSet{a, b}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting duplicate not detected: %v", err)
	}
	// An identical duplicate is redundant but consistent: tolerated.
	c, _ := NewResultSet(1, []core.Result{mkResult(1, 2)})
	if _, err := Merge(m, []*ResultSet{a, c}); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
}

func TestMergeDetectsGapsAndRange(t *testing.T) {
	m := mkManifest(t, 2)
	a, _ := NewResultSet(0, []core.Result{mkResult(0, 1)})
	if _, err := Merge(m, []*ResultSet{a}); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("gap not detected: %v", err)
	}
	oob, _ := NewResultSet(0, []core.Result{mkResult(5, 1)})
	if _, err := Merge(m, []*ResultSet{oob}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range index not detected: %v", err)
	}
}

// TestMergeDetectsForeignResultSet: a result set produced under a
// different plan (same indices, different scenario parameters) must be
// rejected, not silently mixed into the artifact.
func TestMergeDetectsForeignResultSet(t *testing.T) {
	m := mkManifest(t, 2)
	stale := mkResult(0, 1)
	stale.Scenario.Config = core.PaperConfig() // planned config is the zero value
	a, _ := NewResultSet(0, []core.Result{stale})
	b, _ := NewResultSet(1, []core.Result{mkResult(1, 2)})
	if _, err := Merge(m, []*ResultSet{a, b}); err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Fatalf("foreign result set not detected: %v", err)
	}
	renamed := mkResult(0, 1)
	renamed.Scenario.Name = "other"
	c, _ := NewResultSet(0, []core.Result{renamed})
	if _, err := Merge(m, []*ResultSet{c, b}); err == nil || !strings.Contains(err.Error(), "different scenario") {
		t.Fatalf("renamed scenario not detected: %v", err)
	}
}

// TestNewResultSetRefusesFailures: a failed or skipped scenario must fail
// serialization, not produce a partial set the merger would flag later.
func TestNewResultSetRefusesFailures(t *testing.T) {
	bad := mkResult(0, 1)
	bad.Err = context.DeadlineExceeded
	if _, err := NewResultSet(0, []core.Result{bad}); err == nil {
		t.Fatal("failed scenario serialized")
	}
}

// TestRunShardPlacementIndependence is the placement-independence contract
// end to end, in process: the same batch run unsharded, in 2 shards, and
// in 3 shards — with workers reconstructed from the RunnerSpec — must
// merge to bit-identical estimates.
func TestRunShardPlacementIndependence(t *testing.T) {
	cfg := core.PaperConfig()
	cfg.SimTime = 50
	cfg.Warmup = 5
	cfg.Replications = 1
	scenarios := make([]core.Scenario, 6)
	for i := range scenarios {
		c := cfg
		c.PDT = float64(i) / 10
		scenarios[i] = core.Scenario{Name: "pdt", Config: c}
	}
	spec := RunnerSpec{Base: cfg, Seed: cfg.Seed, Methods: []string{"markov"}, DeriveSeeds: true}

	reference, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 3} {
		m, err := NewManifest("", spec, scenarios, n)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]*ResultSet, n)
		for i, sh := range m.Shards {
			// A fresh Runner per shard, as separate worker processes
			// would construct.
			worker, err := spec.NewRunner(core.WithCache(false))
			if err != nil {
				t.Fatal(err)
			}
			if sets[i], err = RunShard(context.Background(), worker, sh); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := Merge(m, sets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if merged[i].Seed != want[i].Seed {
				t.Fatalf("n=%d scenario %d: seed %d != %d", n, i, merged[i].Seed, want[i].Seed)
			}
			if merged[i].Scenario.Config != scenarios[i].Config {
				t.Fatalf("n=%d scenario %d: merge lost the scenario config", n, i)
			}
			if *merged[i].Estimates[0] != *want[i].Estimates[0] {
				t.Fatalf("n=%d scenario %d: sharded estimate differs from unsharded:\n%+v\n%+v",
					n, i, *merged[i].Estimates[0], *want[i].Estimates[0])
			}
		}
	}
}
