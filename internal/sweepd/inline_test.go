package sweepd

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// TestRecoverEmptyJournalSkipsCompaction: Open and Recover on a fresh
// state directory leave the journal file as they created it (no rewrite)
// and create no results directory, while a replay that loads records
// still compacts.
func TestRecoverEmptyJournalSkipsCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	open := func() (*Coordinator, os.FileInfo) {
		t.Helper()
		c, err := Open(Options{StateDir: dir, LeaseTTL: 10 * time.Second, Clock: newFakeClock().Now})
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		return c, fi
	}
	c, before := open()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || after.Size() != 0 {
		t.Fatalf("Recover of an empty journal rewrote it (same file %v, %d bytes)", os.SameFile(before, after), after.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, resultsDir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a fresh state directory has %s/ (stat: %v)", resultsDir, err)
	}

	spec := testSpec()
	submitAll(t, c, spec, testScenarios(spec, 2))
	c.Shutdown(0)
	c, before = open()
	defer c.Shutdown(0)
	if after, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("Recover of a journal with records did not compact it")
	}
}

// TestRecoverLegacyResultRefs: a state directory written before result
// sets were journaled inline — a snapshot's refs and accept records' ref,
// naming files under results/ — recovers, the compaction after recovery
// rewrites every set inline, and a restart that no longer has results/
// restores the same sweeps. Both finish byte-identically to a
// single-process run.
func TestRecoverLegacyResultRefs(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(speculationStateDir)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	legacy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{`"refs":["results/`, `"ref":"results/`} {
		if !bytes.Contains(legacy, []byte(ref)) {
			t.Fatalf("fixture journal lacks %s", ref)
		}
	}

	clock := newFakeClock()
	before := openTestCoordinator(t, dir, clock).Status()
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compacted, []byte(`"ref`)) || !bytes.Contains(compacted, []byte(`"sets":[{`)) {
		t.Fatalf("recovery did not rewrite the sets inline:\n%s", compacted)
	}

	if err := os.RemoveAll(filepath.Join(dir, resultsDir)); err != nil {
		t.Fatal(err)
	}
	c := openTestCoordinator(t, dir, clock)
	after := c.Status()
	if len(after.Sweeps) != 2 || len(before.Sweeps) != 2 {
		t.Fatalf("restored %d and then %d sweeps, want 2", len(before.Sweeps), len(after.Sweeps))
	}
	for i, st := range after.Sweeps {
		if b := before.Sweeps[i]; st.State != b.State || st.Completed != b.Completed || st.Completed != 4 {
			t.Fatalf("sweep %s without results/ = %+v, want %+v", st.ID, st, b)
		}
	}
	finishCompatSweeps(t, c)
}

// TestTornInlineAcceptReplans: a crash inside the write of a lease's
// accept record, its set inline, loses exactly that record. Load keeps
// every whole record before it and truncates the torn one away, and
// Recover re-plans exactly that lease's scenarios, whose merge is
// byte-identical to a single-process run.
func TestTornInlineAcceptReplans(t *testing.T) {
	dir := t.TempDir()
	c := openCoordinator(t, dir, 0)
	// A finished sweep larger than the one under test: the compaction at
	// its finish leaves the next one not due when the sweep under test
	// finishes, so that sweep's accept records stay in the journal.
	big := testSpec()
	big.Seed++
	bigID := submitAll(t, c, big, testScenarios(big, 12))
	runLeases(t, c, big)

	spec := testSpec()
	scenarios := testScenarios(spec, 6)
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: testManifest(t, spec, scenarios), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	leases := []LeaseResponse{leaseWork(t, c, "w"), leaseWork(t, c, "w")}
	for _, l := range leases {
		rs, err := shard.RunShard(context.Background(), runner, *l.Shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Results(l.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: rs}); err != nil {
			t.Fatal(err)
		}
	}
	torn := leases[1]

	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the "" after the final newline
	at := slices.IndexFunc(lines, func(line string) bool {
		return strings.Contains(line, `"kind":"`+recAccept+`"`) && strings.Contains(line, `"lease":"`+torn.LeaseID+`"`)
	})
	if at < 0 {
		t.Fatalf("no accept record for lease %s in the journal:\n%s", torn.LeaseID, data)
	}
	if !strings.Contains(lines[at], `"set":{`) {
		t.Fatalf("accept record carries no inline set: %s", lines[at])
	}
	start := len(strings.Join(lines[:at], ""))

	copied := filepath.Join(t.TempDir(), "state")
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	copiedJournal := filepath.Join(copied, journalFile)
	if err := os.WriteFile(copiedJournal, data[:start+len(lines[at])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(copied)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j.Load()
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(copiedJournal); err != nil || len(recs) != at || fi.Size() != int64(start) {
		t.Fatalf("torn accept: Load kept %d records (want %d), journal now %v bytes (want %d), %v", len(recs), at, fi.Size(), start, err)
	}

	c2 := openCoordinator(t, copied, 0)
	st, err := c2.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Completed != len(leases[0].Shard.Items) || st.Expired != 0 {
		t.Fatalf("sweep after a torn accept = %+v, want running with lease %s's %d scenarios", st, leases[0].LeaseID, len(leases[0].Shard.Items))
	}
	var want []int
	for _, it := range torn.Shard.Items {
		want = append(want, it.Index)
	}
	ran := runLeases(t, c2, spec)
	slices.Sort(ran)
	slices.Sort(want)
	if !slices.Equal(ran, want) {
		t.Fatalf("recovery leased %v, want the torn lease's %v", ran, want)
	}
	merged, err := c2.Merged(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, merged, direct)
	if st, err := c2.SweepStatus(bigID); err != nil || st.State != StateDone {
		t.Fatalf("finished sweep after recovery = (%+v, %v), want done", st, err)
	}
}

// blockingStore is a persistent cache store whose Puts wait until release
// is closed; blocked is closed when the first one starts waiting.
type blockingStore struct {
	*core.MemoryBackend
	release, blocked chan struct{}
	once             sync.Once
}

func (s *blockingStore) Put(key core.CacheKey, est core.Estimate) error {
	s.once.Do(func() { close(s.blocked) })
	<-s.release
	return s.MemoryBackend.Put(key, est)
}

// TestResubmitOnDoneResolvesWhole: the estimates a submission brings are
// in the coordinator's resident cache no later than its sweep reads done,
// even while their writes to the persistent store are still held up, so a
// client that resubmits as soon as it sees done is answered whole at
// submit.
func TestResubmitOnDoneResolvesWhole(t *testing.T) {
	store := &blockingStore{MemoryBackend: core.NewMemoryBackend(), release: make(chan struct{}), blocked: make(chan struct{})}
	c := NewCoordinator(Options{Cache: store})
	spec := testSpec()
	scenarios := testScenarios(spec, 5)
	id := submitAll(t, c, spec, scenarios)
	runner, err := spec.NewRunner(core.WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	var leases []LeaseResponse
	for lr := leaseOnce(t, c); lr.Status == LeaseWork; lr = leaseOnce(t, c) {
		leases = append(leases, lr)
	}
	sets := make([]*shard.ResultSet, len(leases))
	for i, l := range leases {
		if sets[i], err = shard.RunShard(context.Background(), runner, *l.Shard); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	released := false
	defer func() {
		if !released {
			close(store.release)
		}
		wg.Wait()
	}()
	for i, l := range leases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Results(l.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: sets[i]}); err != nil {
				t.Errorf("results for %s: %v", l.LeaseID, err)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		st, err := c.SweepStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", st)
		}
	}
	<-store.blocked
	again := submitAll(t, c, spec, scenarios)
	st, err := c.SweepStatus(again)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != len(scenarios) || st.Queued != 0 {
		t.Fatalf("resubmission on done = %+v, want every scenario resolved at submit", st)
	}
	close(store.release)
	released = true
	wg.Wait()
	if got := cacheStats(t, store); got.Entries != len(scenarios) {
		t.Fatalf("store holds %d entries once released, want %d", got.Entries, len(scenarios))
	}
}

// FuzzJournalFrames: for arbitrary records, inline result sets with odd
// strings among them, appendFrames followed by Load round-trips every
// record exactly, and a journal cut at any byte reads back exactly the
// whole records before the cut.
func FuzzJournalFrames(f *testing.F) {
	f.Add("s1", "p\"a\n\u2028<b>&\\", "boom\x00\t", "l7", 3, 0.25, -1.5e-300, uint16(700))
	f.Add("", "", "", "", 0, 0.0, math.Copysign(0, -1), uint16(0))
	f.Add("s\xff", "\xc3", "é漢🙂", "l1", -1, math.MaxFloat64, math.SmallestNonzeroFloat64, uint16(65535))
	f.Fuzz(func(t *testing.T, sweep, name, msg, lease string, index int, energy, pdt float64, cut uint16) {
		// JSON encodes invalid UTF-8 as U+FFFD, so only valid strings can
		// come back byte for byte.
		for _, s := range []*string{&sweep, &name, &msg, &lease} {
			*s = strings.ToValidUTF8(*s, "\uFFFD")
		}
		cfg := core.PaperConfig()
		cfg.PDT = pdt
		cfg.Power.Name = name
		set := &shard.ResultSet{Version: shard.ResultSetVersion, ShardIndex: index, Results: []shard.ResultItem{{
			Index: index, Name: name, Config: cfg, Seed: uint64(index),
			Estimates: []core.Estimate{{Method: msg, EnergyJ: energy}, {}},
		}}}
		recs := []record{
			{Kind: recAccept, Sweep: sweep, Lease: lease, Set: set},
			{Kind: recRelease, Sweep: sweep, Lease: lease, Reason: name},
			{Kind: recSnapshot, Sweep: sweep, State: StateFailed, Error: msg, Counters: &sweepCounters{Expired: index},
				Sets: []*shard.ResultSet{set, {Version: shard.ResultSetVersion, Results: []shard.ResultItem{}}}},
			{Kind: recShutdown},
		}
		data, err := appendFrames(nil, recs...)
		if err != nil {
			if math.IsNaN(energy) || math.IsInf(energy, 0) || math.IsNaN(pdt) || math.IsInf(pdt, 0) {
				return // non-finite floats have no JSON form
			}
			t.Fatal(err)
		}
		var ends []int // the offset just past each frame
		for i, b := range data {
			if b == '\n' {
				ends = append(ends, i+1)
			}
		}
		if len(ends) != len(recs) || ends[len(ends)-1] != len(data) {
			t.Fatalf("%d records framed into %d lines", len(recs), len(ends))
		}
		// Frames parse independently and in order, so a cut leaves exactly
		// the whole frames before it if every cut inside a frame reads as
		// nothing and the uncut journal reads as every record.
		for k, end := range ends {
			start := 0
			if k > 0 {
				start = ends[k-1]
			}
			for at := start; at < end; at++ {
				if got, valid := parseFrames(data[start:at]); len(got) != 0 || valid != 0 {
					t.Fatalf("frame %d cut after %d of %d bytes read as %d records", k, at-start, end-start, len(got))
				}
			}
		}
		if got, valid := parseFrames(data); len(got) != len(recs) || valid != len(data) {
			t.Fatalf("uncut journal read as %d records up to %d, want %d up to %d", len(got), valid, len(recs), len(data))
		}

		dir := t.TempDir()
		at := int(cut) % (len(data) + 1)
		if err := os.WriteFile(filepath.Join(dir, journalFile), data[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		got, err := j.Load()
		if err != nil {
			t.Fatal(err)
		}
		end := 0 // the end of the last whole frame before the cut
		for _, e := range ends {
			if e <= at {
				end = e
			}
		}
		again, err := appendFrames(nil, got...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data[:end]) {
			t.Fatalf("cut at %d: loaded records re-encode differently:\n%s\n---\n%s", at, again, data[:end])
		}
		// The torn tail is gone: appending goes on from the last whole record.
		if err := j.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if got, err = j.Load(); err != nil {
			t.Fatal(err)
		}
		if again, err = appendFrames(nil, got...); err != nil || !bytes.Equal(again, append(data[:end:end], data...)) {
			t.Fatalf("append after a cut at %d: %v\n%s", at, err, again)
		}
	})
}
