package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// span is one timed call across a layer boundary. Spans are recorded by the
// benchmark's own wrappers around each layer's public functions; nothing
// inside the program is instrumented.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"` // 0: no recorded caller
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Failed bool          `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs skip tracing at the cost of a nil
// check.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID before the span ends, so that a callee — even one
// across an HTTP hop — can name its caller.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span that began at start.
func (t *tracer) add(id, parent int64, name string, start time.Time, failed bool) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), End: end, Failed: failed})
	t.mu.Unlock()
}

// do runs f as one parentless span and returns its error.
func (t *tracer) do(name string, f func() error) error {
	id, start := t.id(), time.Now()
	err := f()
	t.add(id, 0, name, start, err != nil)
	return err
}

// clock is the time since the tracer's epoch, the time base of spans.
func (t *tracer) clock() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span ID to the span's duration minus the part of its
// interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval. Children may overlap each other: a parent that
// waits on two concurrent calls is busy with neither for the overlap.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		if a, b := max(k.Start, p.Start), min(k.End, p.End); b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}

// adopt links parentless spans named child to the latest-starting span
// named parent whose interval contains them. It recovers a call edge the
// wrappers cannot see: a CacheBackend decorator is called synchronously
// inside the cache handler but receives no context to name it. When two
// concurrent handler spans both contain the call the choice between them
// is arbitrary, but both contain the whole child interval, so the per-layer
// self-time totals do not depend on it.
func adopt(spans []span, child, parent string) {
	var ps []span
	for _, s := range spans {
		if s.Name == parent {
			ps = append(ps, s)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		j := sort.Search(len(ps), func(j int) bool { return ps[j].Start > c.Start })
		for j--; j >= 0; j-- {
			if ps[j].End >= c.End {
				c.Parent = ps[j].ID
				break
			}
		}
	}
}

// durations groups the durations of the spans keep accepts by name, in ms.
func durations(spans []span, keep func(span) bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		if keep(s) {
			out[s.Name] = append(out[s.Name], ms(s.dur()))
		}
	}
	return out
}

func anySpan(span) bool { return true }

// layerRow is one line of the per-layer ledger.
type layerRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	SelfMs   float64 `json:"self_busy_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	Failures int     `json:"failures"`
}

// ledger aggregates spans by name: count, summed self time, nearest-rank
// p50/p90 of the span durations, and failures.
func ledger(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfMs += ms(self[s.ID])
		if s.Failed {
			r.Failures++
		}
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.P50Ms, r.P90Ms = percentile(durs[name], 50), percentile(durs[name], 90)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---------------------------------------------------------------------------
// Wrappers around the sweep service's layers.

// spanHeader carries the client span's ID to the server, so the handler
// span is recorded as the round trip's child.
const spanHeader = "X-Wsnbench-Span"

// endpoint names a sweepd protocol call from its method and path.
func endpoint(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/cache/"):
		return "cache_" + strings.TrimPrefix(path, "/v1/cache/")
	case path == "/v1/sweeps" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/v1/sweeps/"):
		if strings.HasSuffix(path, "/results") {
			return "sweep_results"
		}
		return "status"
	case path == "/v1/lease":
		return "lease"
	case strings.HasPrefix(path, "/v1/lease/"):
		return path[strings.LastIndexByte(path, '/')+1:] // heartbeat, results, fail
	}
	return "other"
}

// failedStatus reports whether an HTTP answer is a failure. A 404 from the
// cache is a miss, the normal answer of a cold sweep.
func failedStatus(ep string, code int) bool {
	return code >= 400 && !(code == http.StatusNotFound && ep == "cache_get")
}

// tracedTransport records a "sweepd.<endpoint>_rtt" span per request, from
// sending the request until the caller closes the response body.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.Method, req.URL.Path)
	name := "sweepd." + ep + "_rtt"
	id, start := tt.t.id(), time.Now()
	r := req.Clone(req.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.add(id, 0, name, start, true)
		return nil, err
	}
	code := resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.add(id, 0, name, start, failedStatus(ep, code)) }}
	return resp, nil
}

// spanBody ends a round-trip span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// instrument wraps the coordinator's handler. It always counts lease polls
// (set-up waits for every worker's first poll); with a tracer it also
// records a "sweepd.<endpoint>_server" span per request, as the child of
// the client's round-trip span.
func instrument(h http.Handler, t *tracer, polls *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpoint(r.Method, r.URL.Path)
		if ep == "lease" {
			polls.Add(1)
		}
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id, start := t.id(), time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		t.add(id, parent, "sweepd."+ep+"_server", start, failedStatus(ep, sw.code))
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedCache decorates the coordinator's cache backend with
// "core.filecache_get" and "core.filecache_put" spans.
type tracedCache struct {
	core.CacheBackend
	t *tracer
}

func (c tracedCache) Get(key core.CacheKey) (core.Estimate, bool, error) {
	id, start := c.t.id(), time.Now()
	est, ok, err := c.CacheBackend.Get(key)
	c.t.add(id, 0, "core.filecache_get", start, err != nil)
	return est, ok, err
}

func (c tracedCache) Put(key core.CacheKey, est core.Estimate) error {
	id, start := c.t.id(), time.Now()
	err := c.CacheBackend.Put(key, est)
	c.t.add(id, 0, "core.filecache_put", start, err != nil)
	return err
}

// tracedEstimator records a "core.est_<method>" span per estimate.
type tracedEstimator struct {
	inner core.Estimator
	layer string
	t     *tracer
}

func (e tracedEstimator) Name() string { return e.inner.Name() }

func (e tracedEstimator) Estimate(cfg core.Config) (*core.Estimate, error) {
	return e.EstimateContext(context.Background(), cfg)
}

func (e tracedEstimator) EstimateContext(ctx context.Context, cfg core.Config) (*core.Estimate, error) {
	id, start := e.t.id(), time.Now()
	est, err := e.inner.EstimateContext(ctx, cfg)
	e.t.add(id, 0, e.layer, start, err != nil)
	return est, err
}

// Unwrap gives the wrapper its inner estimator's cache and cost-model
// identity (core keys both on the unwrapped type), so a traced sweep reads
// and writes exactly the entries an untraced one does.
func (e tracedEstimator) Unwrap() core.LegacyEstimator { return e.inner }

// estLayers names the span of each of the paper's three methods.
var estLayers = map[string]string{"simulation": "core.est_sim", "markov": "core.est_markov", "petrinet": "core.est_petri"}

var tracedSeq atomic.Int64

// tracedMethods registers traced wrappers of the given method specs under
// names unique to this tracer and returns those names. Workers resolve
// manifest methods through the estimator registry, so a manifest listing
// these names makes every in-process worker trace its estimates.
func tracedMethods(t *tracer, specs []string) ([]string, error) {
	seq := tracedSeq.Add(1)
	names := make([]string, len(specs))
	for i, spec := range specs {
		layer, ok := estLayers[spec]
		if !ok {
			return nil, fmt.Errorf("no span name for method %q", spec)
		}
		names[i] = fmt.Sprintf("wsnbench-trace%d-%s", seq, spec)
		err := core.Register(names[i], func(arg string) (core.Estimator, error) {
			inner, err := core.NewEstimator(spec + arg)
			if err != nil {
				return nil, err
			}
			return tracedEstimator{inner: inner, layer: layer, t: t}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}
