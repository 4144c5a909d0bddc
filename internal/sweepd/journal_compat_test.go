package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// speculationStateDir is a coordinator state directory written by the
// coordinator that still issued speculative shadow leases. It holds:
//   - sweep s1 (compatScenarios(spec, 0.001, 4)), done, compacted into a
//     snapshot whose counters carry spec_issued and spec_wins;
//   - sweep s2 (compatScenarios(spec, 0.3, 6)), running: its journal tail
//     has two "speculative":true lease records still outstanding and a
//     "reason":"discarded" release of the straggler whose shadow won.
//
// The coordinator crashed there, with no shutdown record.
const speculationStateDir = "testdata/speculation-state"

// compatScenarios sweeps PDT over n points at a fixed PUD, the grids the
// fixture's two sweeps were submitted with.
func compatScenarios(spec shard.RunnerSpec, pud float64, n int) []core.Scenario {
	out := make([]core.Scenario, n)
	for i := range out {
		cfg := spec.Base
		cfg.PDT = 0.1 * float64(i+1)
		cfg.PUD = pud
		out[i] = core.Scenario{Name: "p" + string(rune('a'+i)), Config: cfg}
	}
	return out
}

// TestRecoverSpeculationEraJournal: an existing `serve -state-dir` whose
// journal holds speculative leases, a discarded release and speculation
// counters survives the upgrade. Replay ignores the retired fields and
// expires the two outstanding leases; the running sweep finishes, and
// both sweeps merge byte-identically to an in-process RunAll.
func TestRecoverSpeculationEraJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(speculationStateDir)); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{`"speculative":true`, `"reason":"discarded"`, `"spec_issued":1`, `"spec_wins":1`} {
		if !bytes.Contains(journal, []byte(retired)) {
			t.Fatalf("fixture journal lacks %s", retired)
		}
	}

	clock := newFakeClock()
	c := openTestCoordinator(t, dir, clock)
	if st, err := c.SweepStatus("s1"); err != nil || st.State != StateDone || st.Completed != 4 {
		t.Fatalf("recovered s1 = (%+v, %v), want done with 4 scenarios", st, err)
	}
	st, err := c.SweepStatus("s2")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != 4 || st.Queued == 0 || st.Leased != 0 || st.Expired != 2 {
		t.Fatalf("recovered s2 = %+v, want running, 4 done, the rest queued, both leases expired", st)
	}
	// Recovery compacted the journal; the retired fields are gone from it.
	compacted, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"speculative", "discarded", "spec_"} {
		if bytes.Contains(compacted, []byte(retired)) {
			t.Fatalf("compacted journal still carries %q:\n%s", retired, compacted)
		}
	}
	finishCompatSweeps(t, c)
}

// finishCompatSweeps runs the recovered fixture's remaining leases on c,
// failing if one re-leases a completed scenario, and requires both sweeps
// to merge byte-identically to an in-process RunAll.
func finishCompatSweeps(t *testing.T, c *Coordinator) {
	t.Helper()
	spec := testSpec()
	runner, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	for {
		lr, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Status != LeaseWork {
			break
		}
		for _, it := range lr.Shard.Items {
			if it.Index < 4 {
				t.Fatalf("recovery re-leased completed scenario %d", it.Index)
			}
		}
		rs, err := shard.RunShard(context.Background(), runner, *lr.Shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Results(lr.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: rs}); err != nil {
			t.Fatal(err)
		}
	}

	for id, scenarios := range map[string][]core.Scenario{
		"s1": compatScenarios(spec, 0.001, 4),
		"s2": compatScenarios(spec, 0.3, 6),
	} {
		merged, err := c.Merged(id)
		if err != nil {
			t.Fatalf("sweep %s: %v", id, err)
		}
		direct, err := runner.RunAll(context.Background(), scenarios)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sweep %s differs from the single-process run:\n%s\n%s", id, got, want)
		}
	}
}
