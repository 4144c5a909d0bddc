package sweepd

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCoordinatorStoresAcceptedResults: on a cold 33-scenario × 3-method
// sweep run by two in-process workers, the coordinator's cache ends with
// exactly the 99 estimates it accepted, the process-wide default cache
// gains nothing (workers never memoize through it), and a resubmission is
// answered at submit, leasing nothing, with the same results.
func TestCoordinatorStoresAcceptedResults(t *testing.T) {
	coord := NewCoordinator(Options{DefaultPartitions: 4})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	spec := tableSpec()
	m := testManifest(t, spec, tableScenarios(spec))
	// Emptied first, so a worker memoizing through it cannot hide behind
	// entries an earlier test left there.
	core.ResetEstimateCache()
	t.Cleanup(core.ResetEstimateCache)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Work(ctx, WorkerOptions{
				Coordinator: srv.URL, Name: name, Parallelism: 2, Client: srv.Client(),
				Backoff: Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2},
			})
			if err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}
	cold, err := client.Submit(SubmitRequest{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := client.SweepStatus(cold)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("cold sweep did not finish: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	if st := cacheStats(t, coord.Cache()); st.Entries != 99 || st.Hits != 0 {
		t.Fatalf("coordinator cache after the cold sweep: %+v, want 99 entries and no hits", st)
	}
	if entries, _ := core.EstimateCacheStats(); entries != 0 {
		t.Fatalf("workers wrote %d entries to the process-wide default cache", entries)
	}

	// No worker is left: the resubmission must complete at submit.
	warm, err := client.Submit(SubmitRequest{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.SweepStatus(warm)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Leased != 0 || st.Queued != 0 {
		t.Fatalf("resubmission was not answered at submit: %+v", st)
	}
	if hits := cacheStats(t, coord.Cache()).Hits; hits != 99 {
		t.Fatalf("resubmission hit the cache %d times, want 99", hits)
	}
	want, err := client.SweepResults(cold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.SweepResults(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("resubmission results differ from the cold sweep's")
	}
}

// TestResultsStoresNothingForLostLease: a submission for an unknown
// (expired or completed) lease is rejected and leaves the cache as it
// was; the same results under the live lease are stored.
func TestResultsStoresNothingForLostLease(t *testing.T) {
	c := NewCoordinator(Options{DefaultPartitions: 1})
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 3))
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m}); err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
	if err != nil || l.Status != LeaseWork {
		t.Fatalf("lease = (%+v, %v)", l, err)
	}
	sub := ResultSubmission{Version: ProtocolVersion, Results: fakeResults(0, l.Shard.Items)}
	if err := c.Results("l999", sub); err == nil {
		t.Fatal("results for an unknown lease accepted")
	}
	if st := cacheStats(t, c.Cache()); st.Entries != 0 {
		t.Fatalf("rejected submission stored %d entries", st.Entries)
	}
	if err := c.Results(l.LeaseID, sub); err != nil {
		t.Fatal(err)
	}
	if st := cacheStats(t, c.Cache()); st.Entries != 3 {
		t.Fatalf("accepted submission stored %d entries, want 3", st.Entries)
	}
}

// TestOldLeaseWithCachePathDecodes: coordinators before the coordinator
// became its cache's only writer sent a cache_path in every lease; the
// field is ignored, so a current worker still reads such a lease.
func TestOldLeaseWithCachePathDecodes(t *testing.T) {
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 2))
	old, err := json.Marshal(map[string]any{
		"version": ProtocolVersion, "status": LeaseWork, "lease_id": "l1", "sweep_id": "s1",
		"runner": m.Runner, "shard": m.Shards[0], "ttl_seconds": 30, "cache_path": CachePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(old)
	}))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	l, err := client.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	if l.Status != LeaseWork || l.LeaseID != "l1" || l.TTLSeconds != 30 ||
		l.Runner == nil || l.Shard == nil || len(l.Shard.Items) != 2 {
		t.Fatalf("old lease decoded as %+v", l)
	}
}
