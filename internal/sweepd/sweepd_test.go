package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// testSpec is a fast, deterministic Runner parameterization: the analytic
// markov estimator over a short horizon.
func testSpec() shard.RunnerSpec {
	cfg := core.PaperConfig()
	cfg.SimTime = 30
	cfg.Warmup = 3
	cfg.Replications = 1
	return shard.RunnerSpec{Base: cfg, Seed: 42, Methods: []string{"markov"}, DeriveSeeds: true}
}

// testScenarios sweeps PDT over n points.
func testScenarios(spec shard.RunnerSpec, n int) []core.Scenario {
	out := make([]core.Scenario, n)
	for i := range out {
		cfg := spec.Base
		cfg.PDT = 0.1 * float64(i+1)
		out[i] = core.Scenario{Name: "p" + string(rune('a'+i)), Config: cfg}
	}
	return out
}

// testManifest wraps scenarios in a submit-ready manifest (the submitted
// partition is advisory, so 1 shard is fine).
func testManifest(t *testing.T, spec shard.RunnerSpec, scenarios []core.Scenario) *shard.Manifest {
	t.Helper()
	m, err := shard.NewManifest("test", spec, scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fakeResults fabricates a result set covering the given shard items —
// coordinator bookkeeping tests don't need real simulations.
func fakeResults(shardIndex int, items []shard.Item) *shard.ResultSet {
	rs := &shard.ResultSet{Version: shard.ResultSetVersion, ShardIndex: shardIndex}
	for _, it := range items {
		rs.Results = append(rs.Results, shard.ResultItem{
			Index:     it.Index,
			Name:      it.Name,
			Config:    it.Config,
			Estimates: []core.Estimate{{Method: "markov"}},
		})
	}
	return rs
}

// fakeClock is a manually advanced clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestSubmitValidation(t *testing.T) {
	c := NewCoordinator(Options{})
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 2))

	if _, err := c.Submit(SubmitRequest{Version: 99, Manifest: m}); err == nil {
		t.Fatal("foreign protocol version accepted")
	}
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion}); err == nil {
		t.Fatal("nil manifest accepted")
	}
	bad := *m
	bad.Version = 99
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: &bad}); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	empty, err := shard.NewManifest("empty", spec, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: empty}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	c.Drain()
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m}); err == nil {
		t.Fatal("draining coordinator accepted a sweep")
	}
}

// TestLeaseLifecycle drives a sweep through grant, heartbeat, expiry,
// requeue, and completion against a fake clock.
func TestLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(Options{LeaseTTL: 10 * time.Second, Clock: clock.Now})
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 4))
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID

	l1, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w1"})
	if err != nil || l1.Status != LeaseWork {
		t.Fatalf("first lease = (%+v, %v)", l1, err)
	}
	if l1.TTLSeconds != 10 {
		t.Fatalf("lease terms: %+v", l1)
	}
	// Heartbeats keep a slow worker alive across several TTL windows.
	for i := 0; i < 3; i++ {
		clock.Advance(8 * time.Second)
		if err := c.Heartbeat(l1.LeaseID); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if st := c.Status(); st.ExpiredLeases != 0 || len(st.Leases) != 1 {
		t.Fatalf("heartbeated lease expired: %+v", st)
	}

	// Silence past the TTL loses the lease; the partition requeues.
	clock.Advance(11 * time.Second)
	st := c.Status()
	if st.ExpiredLeases != 1 || st.Requeues != 1 || len(st.Leases) != 0 {
		t.Fatalf("expiry not recorded: %+v", st)
	}
	if err := c.Heartbeat(l1.LeaseID); err == nil {
		t.Fatal("heartbeat on an expired lease succeeded")
	}
	if err := c.Results(l1.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(0, l1.Shard.Items)}); err == nil {
		t.Fatal("results for an expired lease accepted")
	}

	// Both partitions are grantable again; completing them finishes the
	// sweep.
	for {
		l, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != LeaseWork {
			break
		}
		sub := ResultSubmission{Version: ProtocolVersion, Results: fakeResults(l.Shard.Index, l.Shard.Items)}
		if err := c.Results(l.LeaseID, sub); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := c.SweepStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if sw.State != StateDone || sw.Completed != 4 {
		t.Fatalf("sweep did not finish: %+v", sw)
	}
	merged, err := c.Merged(id)
	if err != nil || len(merged) != 4 {
		t.Fatalf("Merged = (%d results, %v)", len(merged), err)
	}
}

// TestPartialSubmissionReplans: a submission covering part of its
// partition replans exactly the gap — never the finished scenarios.
func TestPartialSubmissionReplans(t *testing.T) {
	c := NewCoordinator(Options{DefaultPartitions: 1})
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 3))
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w1"})
	if err != nil || l.Status != LeaseWork || len(l.Shard.Items) != 3 {
		t.Fatalf("lease = (%+v, %v)", l, err)
	}
	// Report only the first scenario.
	partial := fakeResults(l.Shard.Index, l.Shard.Items[:1])
	if err := c.Results(l.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: partial}); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Replans != 1 || st.Requeues != 1 {
		t.Fatalf("gap not replanned: %+v", st)
	}
	l2, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w2"})
	if err != nil || l2.Status != LeaseWork {
		t.Fatalf("recovery lease = (%+v, %v)", l2, err)
	}
	if len(l2.Shard.Items) != 2 {
		t.Fatalf("recovery partition re-runs %d scenarios, want exactly the 2 missing", len(l2.Shard.Items))
	}
	for _, it := range l2.Shard.Items {
		if it.Index == partial.Results[0].Index {
			t.Fatal("recovery partition re-runs a completed scenario")
		}
	}
	if err := c.Results(l2.LeaseID, ResultSubmission{Version: ProtocolVersion, Results: fakeResults(0, l2.Shard.Items)}); err != nil {
		t.Fatal(err)
	}
	if sw, _ := c.SweepStatus(resp.ID); sw.State != StateDone {
		t.Fatalf("sweep not done after recovery: %+v", sw)
	}
}

// TestFailExhaustsAttempts: a partition that keeps failing takes its
// sweep down instead of looping forever.
func TestFailExhaustsAttempts(t *testing.T) {
	c := NewCoordinator(Options{MaxAttempts: 2, DefaultPartitions: 1})
	spec := testSpec()
	m := testManifest(t, spec, testScenarios(spec, 2))
	resp, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		l, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status != LeaseWork {
			break
		}
		if err := c.Fail(l.LeaseID, FailRequest{Version: ProtocolVersion, Error: "boom"}); err != nil {
			t.Fatal(err)
		}
		if i > 10 {
			t.Fatal("failing partition never exhausted its attempts")
		}
	}
	sw, err := c.SweepStatus(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sw.State != StateFailed || !strings.Contains(sw.Error, "boom") {
		t.Fatalf("sweep state = %+v, want failed with the worker's error", sw)
	}
}

// TestCostWeightedPlanning: once workers have reported costs, new sweeps
// are partitioned by predicted seconds, not scenario count.
func TestCostWeightedPlanning(t *testing.T) {
	c := NewCoordinator(Options{DefaultPartitions: 2})
	spec := testSpec()
	ids, err := core.EstimatorIDs(spec.Methods...)
	if err != nil {
		t.Fatal(err)
	}

	// One heavy scenario (long horizon) and two light ones, in an order
	// where count balancing would pair the heavy one with a light one.
	heavy := spec.Base
	heavy.SimTime = 3000
	light1, light2 := spec.Base, spec.Base
	light2.PDT = 0.9
	scenarios := []core.Scenario{
		{Name: "heavy", Config: heavy},
		{Name: "light1", Config: light1},
		{Name: "light2", Config: light2},
	}
	m := testManifest(t, spec, scenarios)

	// Prime the cost model through the protocol: a first sweep's worker
	// reports its table alongside results.
	first, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
	if err != nil || l.Status != LeaseWork {
		t.Fatalf("lease = (%+v, %v)", l, err)
	}
	costs := core.CostTable{ids[0]: {PerWorkSeconds: 1e-3, AbsSeconds: 1e9}}
	sub := ResultSubmission{Version: ProtocolVersion, Results: fakeResults(0, l.Shard.Items), Costs: costs}
	if err := c.Results(l.LeaseID, sub); err != nil {
		t.Fatal(err)
	}
	if sw, _ := c.SweepStatus(first.ID); sw.State != StateDone {
		t.Fatalf("priming sweep not done: %+v", sw)
	}
	if got := c.CostTable(); got[ids[0]].PerWorkSeconds != 1e-3 {
		t.Fatalf("cost table not adopted: %+v", got)
	}

	// The next sweep's first partition should hold the heavy scenario
	// alone: its predicted cost dwarfs the two light ones combined. The
	// coordinator stored the priming sweep's results, so its cache is
	// emptied first, or the resubmission would resolve at submit and
	// lease nothing.
	if err := c.Cache().Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{Version: ProtocolVersion, Manifest: m}); err != nil {
		t.Fatal(err)
	}
	l2, err := c.Lease(LeaseRequest{Version: ProtocolVersion, Worker: "w"})
	if err != nil || l2.Status != LeaseWork {
		t.Fatalf("weighted lease = (%+v, %v)", l2, err)
	}
	if len(l2.Shard.Items) != 1 || l2.Shard.Items[0].Name != "heavy" {
		t.Fatalf("cost-weighted partition = %+v, want the heavy scenario alone", l2.Shard.Items)
	}
}

// TestServiceEndToEnd runs the full stack in-process: HTTP server, two
// Work loops, the coordinator's result cache — and checks the sweep's merged output
// is byte-identical to a single-process run.
func TestServiceEndToEnd(t *testing.T) {
	coord := NewCoordinator(Options{LeaseTTL: 30 * time.Second, DefaultPartitions: 3})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	spec := testSpec()
	scenarios := testScenarios(spec, 6)
	m := testManifest(t, spec, scenarios)
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	id, err := client.Submit(SubmitRequest{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = Work(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        "w" + string(rune('1'+i)),
				Parallelism: 2,
				Client:      srv.Client(),
				Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2},
			})
		}(i)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		sw, err := client.SweepStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if sw.State == StateDone {
			break
		}
		if sw.State == StateFailed {
			t.Fatalf("sweep failed: %s", sw.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", sw)
		}
		time.Sleep(20 * time.Millisecond)
	}
	coord.Drain()
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}

	// The streamed results equal a single-process run of the same batch,
	// byte for byte.
	resp, err := client.SweepResults(id)
	if err != nil || !resp.Complete {
		t.Fatalf("results = (complete=%v, %v)", resp.Complete, err)
	}
	runner, err := spec.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runner.RunAll(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(direct) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(direct))
	}
	for i, item := range resp.Results {
		want := direct[i]
		if item.Index != i || item.Seed != want.Seed {
			t.Fatalf("result %d: index/seed mismatch: %+v vs seed %d", i, item, want.Seed)
		}
		got, err := json.Marshal(item.Estimates)
		if err != nil {
			t.Fatal(err)
		}
		ests := make([]core.Estimate, len(want.Estimates))
		for j, e := range want.Estimates {
			ests[j] = *e
		}
		expect, err := json.Marshal(ests)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(expect) {
			t.Fatalf("result %d differs from the single-process run:\n%s\n%s", i, got, expect)
		}
	}

	// Workers trained the coordinator's cost model, and the coordinator
	// stored the results it accepted.
	if len(coord.CostTable()) == 0 {
		t.Fatal("no worker cost reports reached the coordinator")
	}
	if stats, err := coord.Cache().Stats(); err != nil || stats.Entries == 0 {
		t.Fatalf("coordinator cache stayed empty: (%+v, %v)", stats, err)
	}
}

// TestClientLeaseGone: the client maps lease-endpoint conflicts to
// ErrLeaseGone so workers can tell "abandon" from "retry".
func TestClientLeaseGone(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Heartbeat("l999"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat on unknown lease: %v", err)
	}
	if err := client.Results("l999", ResultSubmission{Results: &shard.ResultSet{Version: shard.ResultSetVersion}}); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("results on unknown lease: %v", err)
	}
	if err := client.Fail("l999", "x"); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("fail on unknown lease: %v", err)
	}
	if _, err := client.SweepStatus("s999"); err == nil {
		t.Fatal("unknown sweep status succeeded")
	}
	if _, err := NewClient("", nil); err == nil {
		t.Fatal("empty coordinator URL accepted")
	}
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Factor: 2}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // saturates
		2 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// The zero value backs off with the defaults rather than spinning.
	var zero Backoff
	if got := zero.Delay(0); got != DefaultBackoff.Base {
		t.Fatalf("zero-value Delay(0) = %v", got)
	}
	if got := zero.Delay(1000); got != DefaultBackoff.Max {
		t.Fatalf("zero-value Delay(1000) = %v, want saturation", got)
	}
}

// TestWorkerIdleExit: a worker with MaxIdlePolls walks away from an idle
// coordinator, and LeaseBye ends a worker immediately.
func TestWorkerIdleExit(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	fast := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2}
	err := Work(context.Background(), WorkerOptions{
		Coordinator:  srv.URL,
		Client:       srv.Client(),
		Backoff:      fast,
		MaxIdlePolls: 3,
	})
	if err != nil {
		t.Fatalf("idle worker errored: %v", err)
	}
	coord.Drain()
	err = Work(context.Background(), WorkerOptions{
		Coordinator: srv.URL,
		Client:      srv.Client(),
		Backoff:     fast,
	})
	if err != nil {
		t.Fatalf("drained worker errored: %v", err)
	}
}

// TestWorkerUnreachableCoordinator: a dead coordinator exhausts the error
// budget instead of hanging.
func TestWorkerUnreachableCoordinator(t *testing.T) {
	srv := httptest.NewServer(Handler(NewCoordinator(Options{})))
	url := srv.URL
	srv.Close()
	err := Work(context.Background(), WorkerOptions{
		Coordinator: url,
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Factor: 2},
	})
	if err == nil {
		t.Fatal("worker against a dead coordinator returned nil")
	}
}

// TestClientStatusAndBadBodies covers the service-wide status call and the
// server's request hygiene.
func TestClientStatusAndBadBodies(t *testing.T) {
	coord := NewCoordinator(Options{Log: t.Logf})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	id, err := client.Submit(SubmitRequest{Manifest: testManifest(t, spec, testScenarios(spec, 2))})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sweeps) != 1 || st.Sweeps[0].ID != id || st.Sweeps[0].State != StateRunning {
		t.Fatalf("status = %+v", st)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage submit: %d", resp.StatusCode)
	}
	resp, err = srv.Client().Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"version":99}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("foreign-version lease: %d", resp.StatusCode)
	}
}

// TestRunLeasePaths exercises runLease's local-cache and failure branches
// directly.
func TestRunLeasePaths(t *testing.T) {
	coord := NewCoordinator(Options{DefaultPartitions: 1, Log: t.Logf})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()
	client, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	id, err := client.Submit(SubmitRequest{Manifest: testManifest(t, spec, testScenarios(spec, 2))})
	if err != nil {
		t.Fatal(err)
	}
	logf := func(format string, args ...any) { t.Logf(format, args...) }

	// A lease with no payload is failed back, not run.
	runLease(context.Background(), client, WorkerOptions{}, LeaseResponse{LeaseID: "l999", Status: LeaseWork}, logf)

	// A real lease run through a local file cache completes the sweep.
	lease, err := client.Lease("w")
	if err != nil || lease.Status != LeaseWork {
		t.Fatalf("lease = (%+v, %v)", lease, err)
	}
	runLease(context.Background(), client, WorkerOptions{CacheDir: t.TempDir()}, lease, logf)
	if sw, _ := client.SweepStatus(id); sw.State != StateDone {
		t.Fatalf("sweep not done after runLease: %+v", sw)
	}

	// A stale lease id: the shard runs, but submission learns the lease is
	// gone and drops the results quietly.
	stale := lease
	stale.LeaseID = "l999"
	runLease(context.Background(), client, WorkerOptions{}, stale, logf)

	// An unusable cache directory (a file in the way) fails the lease.
	bad := lease
	bad.LeaseID = "l998"
	runLease(context.Background(), client, WorkerOptions{CacheDir: "/dev/null/nope"}, bad, logf)
}
