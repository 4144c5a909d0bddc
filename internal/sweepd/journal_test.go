package sweepd

import (
	"bytes"
	"errors"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestJournalTornTail: a record interrupted mid-write (torn tail, or a
// tail whose bytes were corrupted) is truncated away on Load and the
// journal keeps appending from the last valid record.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []string{"s1", "s2", "s3"} {
		if err := j.Append(record{Kind: recRequeue, Sweep: sweep, Reason: requeueExpired}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: drop its trailing half, newline included.
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Sweep != "s1" || recs[1].Sweep != "s2" {
		t.Fatalf("torn-tail load = %+v, want s1,s2", recs)
	}
	// The journal is immediately appendable again.
	if err := j2.Append(record{Kind: recRequeue, Sweep: "s4", Reason: requeueExpired}); err != nil {
		t.Fatal(err)
	}
	recs, err = j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Sweep != "s4" {
		t.Fatalf("post-truncation append lost: %+v", recs)
	}
	j2.Close()

	// A corrupted (checksum-failing) tail is dropped the same way.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	recs, err = j3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("corrupt-tail load kept %d records, want 2", len(recs))
	}
}

// openTestCoordinator opens a durable coordinator over dir and replays
// its journal.
func openTestCoordinator(t *testing.T, dir string, clock *fakeClock) *Coordinator {
	t.Helper()
	c, err := Open(Options{StateDir: dir, LeaseTTL: 10 * time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ready() {
		t.Fatal("durable coordinator ready before Recover")
	}
	if resp, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "early"}); err != nil || resp.Status != LeaseWait {
		t.Fatalf("lease before recovery = (%+v, %v), want wait", resp, err)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if !c.Ready() {
		t.Fatal("coordinator not ready after Recover")
	}
	return c
}

// leaseWork polls until the coordinator grants a lease.
func leaseWork(t *testing.T, c *Coordinator, worker string) LeaseResponse {
	t.Helper()
	resp, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: worker})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != LeaseWork {
		t.Fatalf("lease for %q = %+v, want work", worker, resp)
	}
	return resp
}

// TestRecoverResumesSweep is the crash-restart round trip: a coordinator
// dies with one partition's results accepted and another leased out; a
// fresh coordinator over the same state directory resumes with exactly
// the missing scenarios queued, cumulative counters, and — after a second
// crash once the sweep finished — the merged results intact.
func TestRecoverResumesSweep(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	spec := testSpec()
	scenarios := testScenarios(spec, 4)

	c1 := openTestCoordinator(t, dir, clock)
	resp, err := c1.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID
	l1 := leaseWork(t, c1, "w1")
	if err := c1.Results(l1.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l1.Shard.Index, l1.Shard.Items)}); err != nil {
		t.Fatal(err)
	}
	l2 := leaseWork(t, c1, "w1")
	done := len(l1.Shard.Items)
	// Crash: c1 is abandoned mid-lease, journal left as-is.

	c2 := openTestCoordinator(t, dir, clock)
	st, err := c2.SweepStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != done || st.Queued == 0 || st.Leased != 0 {
		t.Fatalf("recovered sweep = %+v, want running with %d done and the rest queued", st, done)
	}
	if st.Expired != 1 {
		t.Fatalf("outstanding lease %s not expired by recovery: %+v", l2.LeaseID, st)
	}
	if fleet := c2.Status(); fleet.ExpiredLeases != 1 || !fleet.Ready {
		t.Fatalf("fleet counters after recovery: %+v", fleet)
	}
	// The abandoned lease is unknown to the new coordinator.
	if err := c2.Heartbeat(l2.LeaseID); err == nil {
		t.Fatalf("pre-crash lease %s survived the restart", l2.LeaseID)
	}

	// Finish the sweep on the recovered coordinator: only the missing
	// scenarios are handed out again.
	seen := make(map[int]bool)
	for {
		lr, err := c2.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Status != LeaseWork {
			break
		}
		for _, it := range lr.Shard.Items {
			if it.Index < done {
				t.Fatalf("recovery re-leased completed scenario %d", it.Index)
			}
			seen[it.Index] = true
		}
		if err := c2.Results(lr.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(lr.Shard.Index, lr.Shard.Items)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != len(scenarios)-done {
		t.Fatalf("recovery leased %d scenarios, want %d", len(seen), len(scenarios)-done)
	}
	st, err = c2.SweepStatus(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("resumed sweep = (%+v, %v), want done", st, err)
	}
	if _, err := c2.Merged(id); err != nil {
		t.Fatal(err)
	}

	// Crash again after completion: the compacted journal replays the
	// finished sweep — merged results served, counters still cumulative,
	// nothing re-queued.
	c3 := openTestCoordinator(t, dir, clock)
	st, err = c3.SweepStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(scenarios) || st.Queued != 0 {
		t.Fatalf("finished sweep after second restart = %+v", st)
	}
	if st.Expired != 1 {
		t.Fatalf("counters not cumulative across restarts: %+v", st)
	}
	merged, err := c3.Merged(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(scenarios) {
		t.Fatalf("replayed merge has %d results, want %d", len(merged), len(scenarios))
	}
	if lr, err := c3.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w3"}); err != nil || lr.Status != LeaseWait {
		t.Fatalf("finished sweep still leases work: (%+v, %v)", lr, err)
	}
}

// TestRecoverDuplicateAccept: replaying a journal whose accept record was
// duplicated (a crash can land between the append and the apply, and the
// retried submission appends again) folds the result set once.
func TestRecoverDuplicateAccept(t *testing.T) {
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

	// Duplicate the accept line verbatim (valid frame, same ref).
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var acceptLine string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"kind":"`+recAccept+`"`) {
			acceptLine = line
		}
	}
	if acceptLine == "" {
		t.Fatal("no accept record journaled")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(acceptLine + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2 := openTestCoordinator(t, dir, clock)
	st, err := c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != len(l1.Shard.Items) || st.State != StateRunning {
		t.Fatalf("duplicate accept replay = %+v, want %d completed, running", st, len(l1.Shard.Items))
	}
	// The sweep still finishes cleanly — the deduplicated set cannot
	// conflict with itself at merge time.
	for {
		lr, err := c2.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Status != LeaseWork {
			break
		}
		if err := c2.Results(lr.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(lr.Shard.Index, lr.Shard.Items)}); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := c2.SweepStatus(resp.ID); err != nil || st.State != StateDone {
		t.Fatalf("sweep after duplicate-accept recovery = (%+v, %v), want done", st, err)
	}
}

// TestDrainUnderLoad: drain stops leasing immediately (queued work
// included), in-flight leases still submit, Shutdown journals the clean
// exit, and the next coordinator resumes the still-queued partition with
// no spurious expiries.
func TestDrainUnderLoad(t *testing.T) {
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
	c1.Drain()
	// Queued work stays queued: drain refuses new leases outright.
	if lr, err := c1.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"}); err != nil || lr.Status != LeaseBye {
		t.Fatalf("lease under drain = (%+v, %v), want bye", lr, err)
	}
	// The in-flight lease still heartbeats and submits.
	if err := c1.Heartbeat(l1.LeaseID); err != nil {
		t.Fatal(err)
	}
	if err := c1.Results(l1.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l1.Shard.Index, l1.Shard.Items)}); err != nil {
		t.Fatal(err)
	}
	st := c1.Status()
	if !st.Draining || len(st.Leases) != 0 {
		t.Fatalf("status under drain: %+v", st)
	}
	c1.Shutdown(time.Second)

	c2 := openTestCoordinator(t, dir, clock)
	sw, err := c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sw.State != StateRunning || sw.Completed != len(l1.Shard.Items) || sw.Queued == 0 {
		t.Fatalf("sweep after clean shutdown = %+v", sw)
	}
	if sw.Expired != 0 {
		t.Fatalf("clean drain still expired a lease: %+v", sw)
	}
	for {
		lr, err := c2.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if lr.Status != LeaseWork {
			break
		}
		if err := c2.Results(lr.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(lr.Shard.Index, lr.Shard.Items)}); err != nil {
			t.Fatal(err)
		}
	}
	if sw, err := c2.SweepStatus(resp.ID); err != nil || sw.State != StateDone {
		t.Fatalf("resumed sweep = (%+v, %v), want done", sw, err)
	}
}

// TestReadinessOverHTTP: /v1/healthz answers as soon as the handler is
// mounted, /v1/readyz (and Client.Ready) flips only when journal replay
// finishes, and a vanished coordinator reads as not ready rather than
// an error.
func TestReadinessOverHTTP(t *testing.T) {
	clock := newFakeClock()
	c, err := Open(Options{StateDir: t.TempDir(), LeaseTTL: 10 * time.Second, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during replay = %d, want 200", resp.StatusCode)
	}
	if client.Ready() {
		t.Fatal("client reports ready before Recover")
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if !client.Ready() {
		t.Fatal("client not ready after Recover")
	}

	srv.Close()
	if client.Ready() {
		t.Fatal("client ready against a closed coordinator")
	}
}

// TestJournalCompactAndResults: Compact atomically replaces the journal's
// contents and appends keep working afterwards; WriteResults/ReadResults
// round-trip a result set by reference (WriteResults creating the results
// directory on first use), confine references to the results directory,
// and reject wrong-version payloads.
func TestJournalCompactAndResults(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if err := j.Append(record{Kind: recRequeue, Sweep: "s1", Reason: requeueExpired}); err != nil {
			t.Fatal(err)
		}
	}
	snapshot, err := appendFrames(nil, record{Kind: recSnapshot, Sweep: "s1", State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends must land in the compacted file, not the
	// unlinked pre-compaction inode.
	if err := j.Append(record{Kind: recSubmit, Sweep: "s2"}); err != nil {
		t.Fatal(err)
	}
	recs, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Kind != recSnapshot || recs[1].Sweep != "s2" {
		t.Fatalf("post-compaction journal = %+v, want snapshot(s1)+submit(s2)", recs)
	}

	// OpenJournal leaves results/ alone; WriteResults creates it.
	if _, err := os.Stat(filepath.Join(dir, resultsDir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenJournal created %s/ (stat: %v)", resultsDir, err)
	}
	rs := &shard.ResultSet{Version: shard.ResultSetVersion, Results: []shard.ResultItem{{Index: 3}}}
	ref, err := j.WriteResults("s1", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ref, resultsDir+"/") {
		t.Fatalf("result reference %q not under %s/", ref, resultsDir)
	}
	got, err := j.ReadResults(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Index != 3 {
		t.Fatalf("result round-trip = %+v", got)
	}
	// A reference is a name, not a path: traversal stays confined to
	// results/ and simply fails to resolve.
	if _, err := j.ReadResults("../journal.wal"); err == nil {
		t.Fatal("path-traversal reference resolved outside results/")
	}
	bad := filepath.Join(dir, resultsDir, "evil.json")
	if err := os.WriteFile(bad, []byte(`{"version":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.ReadResults("evil.json"); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version result set accepted: %v", err)
	}
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.ReadResults("evil.json"); err == nil {
		t.Fatal("corrupt result set accepted")
	}
}

// TestOpenBadStateDir: a state directory that cannot be created (a file
// squats on the path) fails Open loudly instead of running non-durably.
func TestOpenBadStateDir(t *testing.T) {
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{StateDir: occupied}); err == nil {
		t.Fatal("Open succeeded with a file squatting on the state dir")
	}
}

// TestCompactionCopiesDoneSnapshots: a compaction keeps each done sweep's
// framed snapshot and later compactions copy it, and the file they write
// is byte-identical to encoding every snapshot and lease afresh. A replay
// of that file restores the same service state.
func TestCompactionCopiesDoneSnapshots(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	c := openTestCoordinator(t, dir, clock)
	spec := testSpec()
	scenarios := testScenarios(spec, 4)

	// s1 finishes through leases, s2 at submit from what s1 stored, and
	// s3 (another seed, so nothing is cached) keeps a lease out.
	s1 := submitAll(t, c, spec, scenarios)
	for st, _ := c.SweepStatus(s1); st.State == StateRunning; st, _ = c.SweepStatus(s1) {
		l := leaseWork(t, c, "w")
		if err := c.Results(l.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l.Shard.Index, l.Shard.Items)}); err != nil {
			t.Fatal(err)
		}
	}
	submitAll(t, c, spec, scenarios)
	other := spec
	other.Seed++
	submitAll(t, c, other, scenarios)
	leaseWork(t, c, "w")

	c.mu.Lock()
	c.compactLocked(true)
	var done int
	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.state == StateDone {
			done++
		}
		if (sw.state == StateDone) != (sw.snapshot != nil) {
			t.Fatalf("sweep %s (%s): kept snapshot = %v", id, sw.state, sw.snapshot != nil)
		}
	}
	if done != 2 {
		t.Fatalf("%d sweeps done, want s1 and s2", done)
	}
	c.compactLocked(true)
	got, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for _, id := range c.order {
		recs = append(recs, snapshotRecord(c.sweeps[id]))
	}
	ids := slices.Sorted(maps.Keys(c.leases))
	for _, id := range ids {
		l := c.leases[id]
		recs = append(recs, record{Kind: recLease, Sweep: l.sweepID, Lease: id, Worker: l.worker, ShardIndex: l.part.shard.Index})
	}
	want, err := appendFrames(nil, recs...)
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("compacted journal (%d leases) differs from the re-encoded one:\n%s\n---\n%s", len(ids), got, want)
	}

	before := c.Status()
	replayed := openTestCoordinator(t, dir, clock).Status()
	if len(replayed.Sweeps) != len(before.Sweeps) {
		t.Fatalf("replay restored %d sweeps, want %d", len(replayed.Sweeps), len(before.Sweeps))
	}
	for i, st := range replayed.Sweeps {
		if st.ID != before.Sweeps[i].ID || st.State != before.Sweeps[i].State || st.Completed != before.Sweeps[i].Completed {
			t.Fatalf("replayed sweep %d = %+v, want %+v", i, st, before.Sweeps[i])
		}
	}
}
