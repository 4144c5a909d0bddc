package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func sp(id, parent int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "parent", 0, 100),
		sp(2, 1, "a", 10, 40),
		sp(3, 1, "b", 30, 60),  // overlaps a: the union of a and b is [10,60]
		sp(4, 1, "c", 90, 120), // runs past the parent: only [90,100] counts
		sp(5, 2, "grandchild", 15, 20),
		sp(6, 0, "other", 0, 7),
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestAdoptLinksContainedSpansToTheLatestContainer(t *testing.T) {
	spans := []span{
		sp(1, 0, "server", 0, 50),
		sp(2, 0, "server", 10, 30),
		sp(3, 0, "cache", 12, 20), // inside both: the later-starting one wins
		sp(4, 0, "cache", 35, 45), // only inside span 1
		sp(5, 0, "cache", 60, 70), // inside none
	}
	adopt(spans, "cache", "server")
	for i, want := range []int64{0, 0, 2, 1, 0} {
		if spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", spans[i].ID, spans[i].Parent, want)
		}
	}
}

func TestLedger(t *testing.T) {
	spans := []span{
		sp(1, 0, "rtt", 0, 10),
		sp(2, 1, "server", 2, 8),
		sp(3, 0, "rtt", 20, 24),
	}
	spans[2].Failed = true
	rows := ledger(spans)
	if len(rows) != 2 || rows[0].Name != "rtt" || rows[1].Name != "server" {
		t.Fatalf("ledger rows = %+v", rows)
	}
	rtt := rows[0]
	if rtt.Count != 2 || rtt.Failures != 1 || rtt.SelfMs != ms(4+4) || rtt.P50Ms != ms(4) || rtt.P90Ms != ms(10) {
		t.Errorf("rtt row = %+v", rtt)
	}
}

func TestEndpoint(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/sweeps", "submit"},
		{"GET", "/v1/sweeps/s1", "status"},
		{"GET", "/v1/sweeps/s1/results", "sweep_results"},
		{"POST", "/v1/lease", "lease"},
		{"POST", "/v1/lease/l3/results", "results"},
		{"POST", "/v1/lease/l3/heartbeat", "heartbeat"},
		{"POST", "/v1/cache/get", "cache_get"},
		{"POST", "/v1/cache/put", "cache_put"},
	} {
		if got := endpoint(c.method, c.path); got != c.want {
			t.Errorf("endpoint(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// The round-trip span is the parent of the handler span across the HTTP
// hop, and a cache miss is not a failure.
func TestTransportAndHandlerSpans(t *testing.T) {
	tr := newTracer()
	var polls atomic.Int64
	h := instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}), tr, &polls)
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &http.Client{Transport: tracedTransport{t: tr, base: http.DefaultTransport}}
	for _, path := range []string{"/v1/cache/get", "/v1/lease"} {
		resp, err := client.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	spans := tr.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rtt, server := byName["sweepd.cache_get_rtt"], byName["sweepd.cache_get_server"]
	if server.Parent != rtt.ID || rtt.ID == 0 {
		t.Errorf("server span parent %d, want the round trip's id %d", server.Parent, rtt.ID)
	}
	if rtt.Failed || server.Failed {
		t.Error("a cache miss was recorded as a failure")
	}
	if !byName["sweepd.lease_rtt"].Failed {
		t.Error("a 404 lease answer was not recorded as a failure")
	}
	if polls.Load() != 1 {
		t.Errorf("lease polls = %d, want 1", polls.Load())
	}
}
