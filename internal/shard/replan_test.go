package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
)

// weightByPDT is a deterministic synthetic cost model for the planning
// tests: cost grows with the scenario's PDT, so a sorted sweep grid has
// its expensive points clustered at one end — the case count balancing
// handles worst.
func weightByPDT(s core.Scenario) float64 { return 1 + 10*s.Config.PDT }

// TestPlanWeightedProperty: for a range of batch sizes and shard counts,
// a weighted plan must cover every scenario exactly once, in order, be
// deterministic, and balance total weight better than the worst shard
// carrying everything.
func TestPlanWeightedProperty(t *testing.T) {
	for _, total := range []int{0, 1, 2, 3, 7, 11, 33} {
		for _, n := range []int{1, 2, 3, 5, 8, 40} {
			scenarios := grid(total)
			shards, err := PlanWeighted(scenarios, n, weightByPDT)
			if err != nil {
				t.Fatalf("total=%d n=%d: %v", total, n, err)
			}
			if len(shards) != n {
				t.Fatalf("total=%d n=%d: %d shards", total, n, len(shards))
			}
			next := 0
			totalW := 0.0
			maxW := 0.0
			for i, s := range shards {
				if s.Index != i {
					t.Fatalf("shard %d has index %d", i, s.Index)
				}
				w := 0.0
				for _, it := range s.Items {
					if it.Index != next {
						t.Fatalf("total=%d n=%d: expected global index %d, got %d", total, n, next, it.Index)
					}
					if it.Name != scenarios[next].Name || it.Config != scenarios[next].Config {
						t.Fatalf("item %d does not match its scenario", next)
					}
					w += weightByPDT(it.Scenario())
					next++
				}
				totalW += w
				if w > maxW {
					maxW = w
				}
			}
			if next != total {
				t.Fatalf("total=%d n=%d: plan covers %d scenarios", total, n, next)
			}
			// Balance: no shard may carry more than the ideal share plus the
			// heaviest single item (the greedy bound for contiguous
			// partitions).
			if total > 0 && n > 1 {
				heaviest := 0.0
				for _, s := range scenarios {
					if w := weightByPDT(s); w > heaviest {
						heaviest = w
					}
				}
				if ideal := totalW / float64(n); maxW > ideal+heaviest+1e-9 {
					t.Fatalf("total=%d n=%d: max shard weight %.2f exceeds ideal %.2f + heaviest %.2f",
						total, n, maxW, ideal, heaviest)
				}
			}
			// Determinism: replanning yields the identical partition.
			again, _ := PlanWeighted(scenarios, n, weightByPDT)
			for i := range shards {
				if len(again[i].Items) != len(shards[i].Items) {
					t.Fatalf("replan changed shard %d", i)
				}
			}
		}
	}
	if _, err := PlanWeighted(grid(3), 0, weightByPDT); err == nil {
		t.Fatal("PlanWeighted accepted 0 shards")
	}
}

// TestPlanWeightedNilIsPlan: a nil weight function must reproduce the
// unweighted partition exactly, so existing plans stay stable.
func TestPlanWeightedNilIsPlan(t *testing.T) {
	scenarios := grid(7)
	want, _ := Plan(scenarios, 3)
	got, err := PlanWeighted(scenarios, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i].Items) != len(want[i].Items) {
			t.Fatalf("shard %d: %d items, want %d", i, len(got[i].Items), len(want[i].Items))
		}
	}
}

// TestPlanWeightedDegenerateWeights: zero, negative and NaN weights count
// as one unit, so a broken or untrained cost model degrades to count
// balancing instead of assigning the whole batch to one shard.
func TestPlanWeightedDegenerateWeights(t *testing.T) {
	scenarios := grid(10)
	for name, weight := range map[string]WeightFunc{
		"zero":     func(core.Scenario) float64 { return 0 },
		"negative": func(core.Scenario) float64 { return -5 },
		"nan":      func(core.Scenario) float64 { return math.NaN() },
	} {
		shards, err := PlanWeighted(scenarios, 3, weight)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		covered := 0
		for _, s := range shards {
			if len(s.Items) == 0 || len(s.Items) > 5 {
				t.Fatalf("%s: degenerate shard sizes: %d items in shard %d", name, len(s.Items), s.Index)
			}
			covered += len(s.Items)
		}
		if covered != 10 {
			t.Fatalf("%s: covered %d of 10", name, covered)
		}
	}
}

// TestPlanWeightedPlacementIndependence: the same batch run through a
// count-balanced and a cost-weighted plan must merge to bit-identical
// estimates — weighting is a wall-clock choice, never an output one.
func TestPlanWeightedPlacementIndependence(t *testing.T) {
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

	run := func(weight WeightFunc) []core.Result {
		t.Helper()
		m, err := NewManifestWeighted("", spec, scenarios, 3, weight)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]*ResultSet, 0, len(m.Shards))
		for _, sh := range m.Shards {
			worker, err := spec.NewRunner(core.WithCache(false))
			if err != nil {
				t.Fatal(err)
			}
			rs, err := RunShard(context.Background(), worker, sh)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, rs)
		}
		merged, err := Merge(m, sets)
		if err != nil {
			t.Fatal(err)
		}
		return merged
	}

	flat := run(nil)
	weighted := run(weightByPDT)
	for i := range flat {
		if *flat[i].Estimates[0] != *weighted[i].Estimates[0] || flat[i].Seed != weighted[i].Seed {
			t.Fatalf("scenario %d: weighted plan changed the result", i)
		}
	}
}

// TestMergeIncompleteError: an incomplete merge surfaces the typed gap
// report with every missing index, matching MissingFrom over the indices
// the result sets cover.
func TestMergeIncompleteError(t *testing.T) {
	m := mkManifest(t, 4)
	a, _ := NewResultSet(0, []core.Result{mkResult(1, 2)})
	_, err := Merge(m, []*ResultSet{a})
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("merge error %v is not an IncompleteError", err)
	}
	if inc.Total != 4 || len(inc.Missing) != 3 {
		t.Fatalf("gap report: %+v", inc)
	}
	for i, want := range []int{0, 2, 3} {
		if inc.Missing[i] != want {
			t.Fatalf("missing[%d] = %d, want %d", i, inc.Missing[i], want)
		}
	}
	covered := map[int]bool{}
	for _, item := range a.Results {
		covered[item.Index] = true
	}
	got := m.MissingFrom(covered)
	if len(got) != len(inc.Missing) {
		t.Fatalf("MissingFrom disagrees with Merge: %v vs %v", got, inc.Missing)
	}
	for i := range got {
		if got[i] != inc.Missing[i] {
			t.Fatalf("MissingFrom disagrees with Merge: %v vs %v", got, inc.Missing)
		}
	}
	// Long gaps truncate the message but never the list.
	big := &IncompleteError{Total: 100, Missing: make([]int, 50)}
	if msg := big.Error(); len(msg) > 200 {
		t.Fatalf("gap message not truncated: %q", msg)
	}
}

// TestReplanCoversExactlyMissing: re-planning covers each missing index
// exactly once, copies the plan's items verbatim, and rejects indices the
// plan never assigned.
func TestReplanCoversExactlyMissing(t *testing.T) {
	scenarios := grid(9)
	spec := RunnerSpec{Base: core.PaperConfig(), Methods: []string{"markov"}}
	m, err := NewManifest("", spec, scenarios, 3)
	if err != nil {
		t.Fatal(err)
	}
	missing := []int{7, 2, 5, 2} // unordered with a duplicate: collapses
	shards, err := Replan(m, missing, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]Item{}
	for _, s := range shards {
		for _, it := range s.Items {
			if _, dup := got[it.Index]; dup {
				t.Fatalf("replan assigned index %d twice", it.Index)
			}
			got[it.Index] = it
		}
	}
	if len(got) != 3 {
		t.Fatalf("replan covers %d indices, want 3", len(got))
	}
	for _, idx := range []int{2, 5, 7} {
		it, ok := got[idx]
		if !ok {
			t.Fatalf("replan dropped missing index %d", idx)
		}
		if it.Name != scenarios[idx].Name || it.Config != scenarios[idx].Config {
			t.Fatalf("replanned item %d does not match the plan's scenario", idx)
		}
	}
	// Completed indices must never re-enter: only the requested ones do.
	for idx := range got {
		if idx != 2 && idx != 5 && idx != 7 {
			t.Fatalf("replan resurrected completed index %d", idx)
		}
	}
	if _, err := Replan(m, []int{42}, 1); err == nil {
		t.Fatal("out-of-range replan index accepted")
	}
	if _, err := Replan(m, []int{1}, 0); err == nil {
		t.Fatal("replan accepted 0 shards")
	}
}

// TestMissingFrom: the incremental-coverage complement agrees with the
// set-based Missing and feeds Replan directly.
func TestMissingFrom(t *testing.T) {
	scenarios := grid(6)
	spec := RunnerSpec{Base: core.PaperConfig(), Methods: []string{"markov"}}
	m, err := NewManifest("", spec, scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{0: true, 3: true, 4: true}
	got := m.MissingFrom(covered)
	want := []int{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("MissingFrom = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MissingFrom = %v, want %v (sorted)", got, want)
		}
	}
	if shards, err := Replan(m, got, 2); err != nil || len(shards) == 0 {
		t.Fatalf("Replan over MissingFrom = (%v, %v)", shards, err)
	}
	if got := m.MissingFrom(nil); len(got) != m.Total {
		t.Fatalf("empty coverage misses %d of %d", len(got), m.Total)
	}
	full := make(map[int]bool, m.Total)
	for i := 0; i < m.Total; i++ {
		full[i] = true
	}
	if got := m.MissingFrom(full); len(got) != 0 {
		t.Fatalf("full coverage still missing %v", got)
	}
}

// TestRecoveredMergeByteIdentical is the crash-recovery contract end to
// end, in process: run a plan but lose one shard's results, re-plan the
// gap Merge reports, run the recovery shards with a fresh Runner, and
// require the recovered merge to serialize byte-identically to the
// uninterrupted one.
func TestRecoveredMergeByteIdentical(t *testing.T) {
	cfg := core.PaperConfig()
	cfg.SimTime = 50
	cfg.Warmup = 5
	cfg.Replications = 1
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		c := cfg
		c.PDT = float64(i) / 10
		scenarios[i] = core.Scenario{Name: "pdt", Config: c}
	}
	spec := RunnerSpec{Base: cfg, Seed: cfg.Seed, Methods: []string{"markov"}, DeriveSeeds: true}
	m, err := NewManifest("", spec, scenarios, 4)
	if err != nil {
		t.Fatal(err)
	}
	runShard := func(sh Shard) *ResultSet {
		t.Helper()
		worker, err := spec.NewRunner(core.WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RunShard(context.Background(), worker, sh)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	// Uninterrupted run: every shard reports.
	complete := make([]*ResultSet, 0, len(m.Shards))
	for _, sh := range m.Shards {
		complete = append(complete, runShard(sh))
	}
	want, err := Merge(m, complete)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: shard 2's worker "crashes" (its set is lost).
	survived := []*ResultSet{complete[0], complete[1], complete[3]}
	_, err = Merge(m, survived)
	var inc *IncompleteError
	if !errors.As(err, &inc) {
		t.Fatalf("interrupted merge: %v", err)
	}
	recovery, err := Replan(m, inc.Missing, 2)
	if err != nil {
		t.Fatal(err)
	}
	recovered := survived
	for _, sh := range recovery {
		if len(sh.Items) == 0 {
			continue
		}
		recovered = append(recovered, runShard(sh))
	}
	got, err := Merge(m, recovered)
	if err != nil {
		t.Fatalf("recovered merge: %v", err)
	}

	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("recovered merge differs from uninterrupted merge:\n%s\n%s", wantJSON, gotJSON)
	}
}

// TestManifestScenariosRoundTrip: Scenarios() inverts the plan.
func TestManifestScenariosRoundTrip(t *testing.T) {
	scenarios := grid(7)
	m, err := NewManifest("", RunnerSpec{Base: core.PaperConfig(), Methods: []string{"markov"}}, scenarios, 3)
	if err != nil {
		t.Fatal(err)
	}
	back := m.Scenarios()
	if len(back) != len(scenarios) {
		t.Fatalf("Scenarios() returned %d, want %d", len(back), len(scenarios))
	}
	for i := range scenarios {
		if back[i] != scenarios[i] {
			t.Fatalf("scenario %d changed in round trip", i)
		}
	}
}
