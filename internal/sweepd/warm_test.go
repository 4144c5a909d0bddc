package sweepd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// tableSpec and tableScenarios shape a Table-4 grid (11 PDTs × 3 PUDs, the
// paper's three methods: 99 cache entries) at a horizon short enough to
// warm in a test.
func tableSpec() shard.RunnerSpec {
	spec := testSpec()
	spec.Methods = core.MethodSpecs()
	return spec
}

func tableScenarios(spec shard.RunnerSpec) []core.Scenario {
	var out []core.Scenario
	for _, pud := range []float64{0.001, 0.3, 10} {
		for i := range 11 {
			cfg := spec.Base
			cfg.PDT = 0.1 * float64(i)
			cfg.PUD = pud
			out = append(out, core.Scenario{Name: fmt.Sprintf("pdt%d-pud%v", i, pud), Config: cfg})
		}
	}
	return out
}

// openCoordinator opens a durable coordinator over dir with the given
// resident-cache bound and replays its journal.
func openCoordinator(t testing.TB, dir string, cacheEntries int) *Coordinator {
	t.Helper()
	c, err := Open(Options{StateDir: dir, CacheEntries: cacheEntries, LeaseTTL: 10 * time.Second, Clock: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	return c
}

// submitAll submits the scenarios as one sweep.
func submitAll(t testing.TB, c *Coordinator, spec shard.RunnerSpec, scenarios []core.Scenario) string {
	t.Helper()
	m, err := shard.NewManifest("test", spec, scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

// cacheStats reads a backend's stats.
func cacheStats(t *testing.T, b core.CacheBackend) core.CacheStats {
	t.Helper()
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestResidentTierReadsThrough: with a one-entry resident LRU over a state
// directory, a warm resubmission of a 33-scenario grid is still answered
// whole at submit, the evicted entries read through from the file store;
// the hit counter grows by exactly one per lookup (99), whichever tier
// answered. A restarted coordinator, whose resident tier starts empty,
// answers the same way, and with room for the grid its second
// resubmission is answered from memory alone. Reset empties both tiers.
func TestResidentTierReadsThrough(t *testing.T) {
	dir := t.TempDir()
	spec := tableSpec()
	scenarios := tableScenarios(spec)
	c := openCoordinator(t, dir, 1)
	all := make([]int, len(scenarios))
	for i := range all {
		all[i] = i
	}
	want := warmCache(t, c, spec, scenarios, all)

	roomy := openCoordinator(t, dir, 0)
	for _, co := range []*Coordinator{c, openCoordinator(t, dir, 1), roomy, roomy} {
		before := cacheStats(t, co.Cache())
		if before.Entries != 99 {
			t.Fatalf("cache holds %d entries, want 99", before.Entries)
		}
		id := submitAll(t, co, spec, scenarios)
		st, err := co.SweepStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Queued != 0 || st.Leased != 0 {
			t.Fatalf("warm resubmission with a one-entry resident tier = %+v, want done at submit", st)
		}
		merged, err := co.Merged(id)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, merged, want)
		if after := cacheStats(t, co.Cache()); after.Hits-before.Hits != 99 {
			t.Fatalf("warm resubmission moved hits %d -> %d, want +99", before.Hits, after.Hits)
		}
	}

	if err := c.Cache().Reset(); err != nil {
		t.Fatal(err)
	}
	if st := cacheStats(t, c.Cache()); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("stats after Reset = %+v, want empty", st)
	}
	store, err := core.NewFileBackend(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if st := cacheStats(t, store); st.Entries != 0 {
		t.Fatalf("file tier holds %d entries after Reset", st.Entries)
	}
	// Neither tier answers any more: the grid is leased whole.
	id := submitAll(t, c, spec, scenarios)
	if st, err := c.SweepStatus(id); err != nil || st.Completed != 0 || st.Queued == 0 {
		t.Fatalf("resubmission after Reset = (%+v, %v), want nothing resolved", st, err)
	}
}

// TestTieredCacheConcurrent: goroutines storing and looking up through a
// two-entry resident tier over a file store (evicting and promoting all
// the time) only ever read the value stored under a key, and Stats counts
// exactly the hits they saw. Run with -race.
func TestTieredCacheConcurrent(t *testing.T) {
	store, err := core.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := &tieredCache{mem: &core.MemoryBackend{MaxEntries: 2}, store: store}
	key := func(i int) core.CacheKey {
		cfg := core.PaperConfig()
		cfg.PDT = float64(i)
		return core.CacheKey{Config: cfg, Method: "m", Estimator: "e"}
	}
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 40 {
				i := (g + r) % 8
				if err := c.Put(key(i), core.Estimate{EnergyJ: float64(i)}); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				est, ok, err := c.Get(key((i + 3) % 8))
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok {
					hits.Add(1)
					if est.EnergyJ != float64((i+3)%8) {
						t.Errorf("key %d read %v", (i+3)%8, est.EnergyJ)
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := cacheStats(t, c); st.Hits != hits.Load() || st.Entries != 8 {
		t.Fatalf("stats %+v, want %d hits over 8 entries", st, hits.Load())
	}
}

// TestTornResolvedBatchReplays: a fully resolved submit journals submit,
// accept and done in one write. Cut after every prefix of that batch —
// at each record boundary and inside each record — recovery reports the
// sweep done with the uncut run's merge, or re-plans every one of its
// scenarios, or (nothing of the submit survived) does not know it.
func TestTornResolvedBatchReplays(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	scenarios := testScenarios(spec, 5)
	c := openCoordinator(t, dir, 0)
	want := warmCache(t, c, spec, scenarios, []int{0, 1, 2, 3, 4})

	// A submit whose completion compacts the journal leaves a snapshot, not
	// the batch, at the tail; resubmit until one leaves the batch.
	path := filepath.Join(dir, journalFile)
	var id string
	var data []byte
	var batch []string
	for range 5 {
		id = submitAll(t, c, spec, scenarios)
		var err error
		if data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		lines = lines[:len(lines)-1] // the "" after the final newline
		if len(lines) < 3 {
			continue
		}
		tail := lines[len(lines)-3:]
		kinds := []string{recSubmit, recAccept, recState}
		ok := true
		for i, kind := range kinds {
			ok = ok && strings.Contains(tail[i], `"kind":"`+kind+`"`) && strings.Contains(tail[i], `"sweep":"`+id+`"`)
		}
		if ok {
			batch = tail
			break
		}
	}
	if batch == nil {
		t.Fatalf("no warm submit left its submit/accept/state batch at the journal tail:\n%s", data)
	}
	uncut, err := c.Merged(id)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, uncut, want)

	start := len(data) - len(strings.Join(batch, ""))
	off := start
	for k, line := range batch {
		for _, cut := range []struct {
			at   int
			kept int // whole batch records left
		}{{off + len(line)/2, k}, {off + len(line), k + 1}} {
			t.Run(fmt.Sprintf("cut%d", cut.at-start), func(t *testing.T) {
				copied := filepath.Join(t.TempDir(), "state")
				if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(copied, journalFile), data[:cut.at], 0o644); err != nil {
					t.Fatal(err)
				}
				c2 := openCoordinator(t, copied, 0)
				st, err := c2.SweepStatus(id)
				switch {
				case cut.kept == 0:
					if err == nil {
						t.Fatalf("sweep %s recovered from a journal that lost its submit: %+v", id, st)
					}
				case cut.kept == 1:
					if err != nil || st.State != StateRunning || st.Completed != 0 {
						t.Fatalf("submit-only replay = (%+v, %v), want running with nothing completed", st, err)
					}
					ran := runLeases(t, c2, spec)
					slices.Sort(ran)
					if !slices.Equal(ran, []int{0, 1, 2, 3, 4}) {
						t.Fatalf("submit-only replay leased %v, want every scenario once", ran)
					}
					fallthrough
				default:
					if st, err = c2.SweepStatus(id); err != nil || st.State != StateDone || st.Expired != 0 {
						t.Fatalf("replay of %d batch records = (%+v, %v), want done", cut.kept, st, err)
					}
					merged, err := c2.Merged(id)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, merged, uncut)
				}
			})
		}
		off += len(line)
	}
}

// TestWarmSubmitJournalStaysBounded: across 200 warm submits the journal
// never exceeds twice its last compacted snapshot plus the batch just
// appended, and it is rewritten only as often as appends double it — a
// logarithmic number of times, not once per completed sweep.
func TestWarmSubmitJournalStaysBounded(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	scenarios := testScenarios(spec, 4)
	c := openCoordinator(t, dir, 0)
	warmCache(t, c, spec, scenarios, []int{0, 1, 2, 3})

	path := filepath.Join(dir, journalFile)
	prev, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, compactions := prev.Size(), 0
	for i := range 200 {
		submitAll(t, c, spec, scenarios)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(prev, fi) {
			// Compaction renames a fresh file over the journal.
			snapshot = fi.Size()
			compactions++
		} else if batch := fi.Size() - prev.Size(); fi.Size() > 2*snapshot+batch {
			t.Fatalf("submit %d: journal %d bytes exceeds 2 × snapshot %d + batch %d", i, fi.Size(), snapshot, batch)
		}
		prev = fi
	}
	t.Logf("200 warm submits compacted the journal %d times; last snapshot %d bytes", compactions, snapshot)
	if compactions > 10 {
		t.Fatalf("200 warm submits compacted the journal %d times, want O(log n)", compactions)
	}
	st := openCoordinator(t, dir, 0).Status()
	if len(st.Sweeps) != 200 || st.Sweeps[199].State != StateDone {
		t.Fatalf("replay after 200 warm submits restored %d sweeps", len(st.Sweeps))
	}
}

// BenchmarkWarmSubmit times one fully cached Submit on a durable
// coordinator that already holds history finished sweeps (each timed
// submit adds one more): cache resolution from the resident tier, the
// result-set file, one journal append, the merge, and the amortized share
// of compaction. The cost should not grow with history.
func BenchmarkWarmSubmit(b *testing.B) {
	spec := tableSpec()
	scenarios := tableScenarios(spec)
	m, err := shard.NewManifest("table4", spec, scenarios, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := SubmitRequest{Version: ProtocolVersion, Manifest: m}
	for _, history := range []int{5, 500} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			c := openCoordinator(b, b.TempDir(), 0)
			b.Cleanup(func() { c.Shutdown(0) })
			runner, err := spec.NewRunner(core.WithCacheBackend(c.Cache()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runner.RunAll(context.Background(), scenarios); err != nil {
				b.Fatal(err)
			}
			for range history {
				if _, err := c.Submit(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				resp, err := c.Submit(req)
				if err != nil {
					b.Fatal(err)
				}
				if st, _ := c.SweepStatus(resp.ID); st.State != StateDone {
					b.Fatalf("warm submit left sweep %s %s", resp.ID, st.State)
				}
			}
		})
	}
}
