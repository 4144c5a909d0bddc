package sweepd

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
)

// warmCache runs the chosen scenarios in-process through the
// coordinator's own cache backend, as workers would have, and returns the
// results of the full batch from a cache-less run for reference.
func warmCache(t *testing.T, c *Coordinator, spec shard.RunnerSpec, scenarios []core.Scenario, warm []int) []core.Result {
	t.Helper()
	runner, err := spec.NewRunner(core.WithCacheBackend(c.Cache()))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range warm {
		if _, err := runner.Run(context.Background(), scenarios[i]); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// sameResults compares merged results with a single-process run byte for
// byte through their JSON encodings.
func sameResults(t *testing.T, got, want []core.Result) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("merged results differ from the single-process run:\n%s\n%s", g, w)
	}
}

// journalKinds lists the kinds of the records in dir's journal.
func journalKinds(t *testing.T, dir string) []string {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(recs))
	for i, rec := range recs {
		kinds[i] = rec.Kind
	}
	return kinds
}

// TestSubmitResolvesCachedSweep: a sweep the coordinator's cache answers
// whole is done when Submit returns, with no lease granted or journaled,
// and its merge equals the single-process run. A copy of the state
// directory taken right after the submit recovers it as done with no
// requeue or expiry, and merges identically.
func TestSubmitResolvesCachedSweep(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := testSpec()
	scenarios := testScenarios(spec, 5)
	c := openTestCoordinator(t, dir, clock)
	want := warmCache(t, c, spec, scenarios, []int{0, 1, 2, 3, 4})

	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(scenarios) || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("fully cached sweep after Submit = %+v, want done", st)
	}
	merged, err := c.Merged(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, merged, want)
	if kinds := journalKinds(t, dir); slices.Contains(kinds, recLease) {
		t.Fatalf("a fully cached sweep journaled a lease: %v", kinds)
	}
	if lr := leaseOnce(t, c); lr.Status != LeaseWait {
		t.Fatalf("fully cached sweep still leases work: %+v", lr)
	}

	copied := filepath.Join(t.TempDir(), "state")
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	c2 := openTestCoordinator(t, copied, clock)
	st, err = c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(scenarios) || st.Requeues != 0 || st.Expired != 0 {
		t.Fatalf("resolved sweep after restart = %+v, want done with no requeue or expiry", st)
	}
	merged, err = c2.Merged(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, merged, want)
}

// leaseOnce asks for one lease.
func leaseOnce(t *testing.T, c *Coordinator) LeaseResponse {
	t.Helper()
	lr, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	return lr
}

// runLeases serves every queued lease in-process with real results and
// returns the global indices it ran.
func runLeases(t *testing.T, c *Coordinator, spec shard.RunnerSpec) []int {
	t.Helper()
	runner, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	var ran []int
	for {
		lr := leaseOnce(t, c)
		if lr.Status != LeaseWork {
			return ran
		}
		rs, err := shard.RunShard(context.Background(), runner, *lr.Shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range lr.Shard.Items {
			ran = append(ran, it.Index)
		}
		if err := c.Results(lr.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: rs}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitLeasesOnlyMisses: with part of a sweep cached, the leased
// scenarios are exactly the missing indices, split into at most the
// requested partitions, and the merge equals the single-process run.
func TestSubmitLeasesOnlyMisses(t *testing.T) {
	c := NewCoordinator(Options{})
	spec := testSpec()
	scenarios := testScenarios(spec, 6)
	want := warmCache(t, c, spec, scenarios, []int{1, 3, 4})

	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != 3 || st.Queued != 3 {
		t.Fatalf("partially cached sweep after Submit = %+v, want 3 resolved and 3 partitions queued", st)
	}
	ran := runLeases(t, c, spec)
	slices.Sort(ran)
	if !slices.Equal(ran, []int{0, 2, 5}) {
		t.Fatalf("leased scenarios %v, want exactly the misses [0 2 5]", ran)
	}
	merged, err := c.Merged(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, merged, want)
	if st, _ := c.SweepStatus(resp.ID); st.Requeues != 0 || st.Expired != 0 {
		t.Fatalf("unfaulted sweep counted recovery: %+v", st)
	}
}

// TestSubmitUnknownMethodLeasesAsToday: a method spec the coordinator
// cannot resolve skips resolution; the sweep is admitted and leased whole
// in the requested partitions.
func TestSubmitUnknownMethodLeasesAsToday(t *testing.T) {
	c := NewCoordinator(Options{})
	spec := testSpec()
	spec.Methods = []string{"quantum"}
	scenarios := testScenarios(spec, 4)
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 2})
	if err != nil {
		t.Fatalf("sweep with an unknown method rejected: %v", err)
	}
	st, err := c.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != 0 || st.Queued != 2 {
		t.Fatalf("unknown-method sweep = %+v, want running with 2 partitions queued", st)
	}
	var leased []int
	for {
		lr := leaseOnce(t, c)
		if lr.Status != LeaseWork {
			break
		}
		for _, it := range lr.Shard.Items {
			leased = append(leased, it.Index)
		}
	}
	slices.Sort(leased)
	if !slices.Equal(leased, []int{0, 1, 2, 3}) {
		t.Fatalf("leased %v, want every scenario", leased)
	}
}

// TestRecoverTornAfterRelease: Results journals its release and accept in
// one write. A crash that tears the write after the release line replays
// as a released lease with no accept: the lease neither expires nor
// counts as done, its scenarios are re-planned, and each runs once more.
func TestRecoverTornAfterRelease(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := testSpec()
	scenarios := testScenarios(spec, 4)

	c1 := openTestCoordinator(t, dir, clock)
	resp, err := c1.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	l1 := leaseWork(t, c1, "w1")
	if err := c1.Results(l1.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l1.Shard.Index, l1.Shard.Items)}); err != nil {
		t.Fatal(err)
	}

	// Tear the journal halfway through its last line, the accept.
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	last := lines[len(lines)-2] // SplitAfter leaves "" after the final newline
	prev := lines[len(lines)-3]
	if !strings.Contains(last, `"kind":"`+recAccept+`"`) || !strings.Contains(prev, `"kind":"`+recRelease+`"`) {
		t.Fatalf("journal does not end release, accept:\n%s%s", prev, last)
	}
	if err := os.WriteFile(path, data[:len(data)-len(last)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCoordinator(t, dir, clock)
	st, err := c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != 0 || st.Leased != 0 || st.Expired != 0 {
		t.Fatalf("torn-accept replay = %+v, want running, nothing completed, no expiry", st)
	}
	ran := runLeases(t, c2, spec)
	slices.Sort(ran)
	if !slices.Equal(ran, []int{0, 1, 2, 3}) {
		t.Fatalf("after the torn accept the coordinator leased %v, want each scenario once", ran)
	}
	st, err = c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(scenarios) || st.Expired != 0 {
		t.Fatalf("sweep after torn-accept recovery = %+v, want done with no expiry", st)
	}
}
