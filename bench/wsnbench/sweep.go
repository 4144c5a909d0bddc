package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shard"
	"repro/internal/sweepd"
)

// benchBackoff paces the in-process workers. wsnenergy work's default
// (100 ms to 5 s) and its 500 ms client poll would measure the poll
// intervals, not the program.
var benchBackoff = sweepd.Backoff{Base: 200 * time.Microsecond, Max: 2 * time.Millisecond, Factor: 2}

// statusPoll is the client's status polling interval.
const statusPoll = 500 * time.Microsecond

// service is a durable coordinator on a loopback listener with nproc
// workers, all in this process: what `wsnenergy serve -state-dir` plus
// nproc `wsnenergy work` processes run, without process start-up.
type service struct {
	coord     *sweepd.Coordinator
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	client    *sweepd.Client
	cancel    context.CancelFunc
	workers   sync.WaitGroup
	polls     atomic.Int64
	mu        sync.Mutex
	workErr   error
}

// startService opens a coordinator on dir (which must be empty or absent),
// replays its journal, serves it, and starts the workers. With a tracer the
// HTTP client, the handler and the cache backend record spans.
func startService(e *env, dir string) (*service, error) {
	opts := sweepd.Options{StateDir: dir}
	if e.t != nil {
		// The backend Open would build, decorated.
		fb, err := core.NewFileBackend(filepath.Join(dir, "cache"))
		if err != nil {
			return nil, err
		}
		opts.Cache = tracedCache{CacheBackend: fb, t: e.t}
	}
	coord, err := sweepd.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := coord.Recover(); err != nil {
		coord.Shutdown(0)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Shutdown(0)
		return nil, err
	}
	s := &service{coord: coord, served: make(chan struct{})}
	s.srv = &http.Server{Handler: instrument(sweepd.Handler(coord), e.t, &s.polls)}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()

	// One connection per worker plus the client's.
	s.transport = &http.Transport{MaxIdleConnsPerHost: e.nproc + 1}
	var rt http.RoundTripper = s.transport
	if e.t != nil {
		rt = tracedTransport{t: e.t, base: s.transport}
	}
	hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()
	if s.client, err = sweepd.NewClient(base, hc); err != nil {
		s.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := range e.nproc {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			err := sweepd.Work(ctx, sweepd.WorkerOptions{
				Coordinator: base, Name: fmt.Sprintf("w%d", i), Parallelism: 1, Client: hc, Backoff: benchBackoff,
			})
			if err != nil {
				s.mu.Lock()
				s.workErr = errors.Join(s.workErr, err)
				s.mu.Unlock()
			}
		}()
	}
	return s, nil
}

// stop shuts the service down and waits for every goroutine it started. It
// returns the first worker error, if any.
func (s *service) stop() error {
	if s.cancel != nil {
		s.cancel()
	}
	s.workers.Wait()
	_ = s.srv.Close() // no request is in flight once the workers are gone
	<-s.served
	s.coord.Shutdown(0)
	s.transport.CloseIdleConnections()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workErr
}

// waitPolls waits until every worker has polled for a lease once.
func (s *service) waitPolls(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for s.polls.Load() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers polled within 10 s", s.polls.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// sweep submits m, polls its status until it is done, and returns the
// time from submit to done and the digest of the merged results, which
// the client fetches and merges as `wsnenergy sweep` does.
func (s *service) sweep(m *shard.Manifest) (time.Duration, string, error) {
	start := time.Now()
	id, err := s.client.Submit(sweepd.SubmitRequest{Manifest: m})
	if err != nil {
		return 0, "", err
	}
	var st sweepd.SweepStatus
	for {
		if st, err = s.client.SweepStatus(id); err != nil {
			return 0, "", err
		}
		if st.State == sweepd.StateDone {
			break
		}
		if st.State == sweepd.StateFailed {
			return 0, "", fmt.Errorf("sweep %s failed: %s", id, st.Error)
		}
		time.Sleep(statusPoll)
	}
	lat := time.Since(start)
	if st.Expired+st.Requeues > 0 {
		return 0, "", fmt.Errorf("sweep %s: %d leases expired, %d partitions requeued in an unfaulted run", id, st.Expired, st.Requeues)
	}
	resp, err := s.client.SweepResults(id)
	if err != nil {
		return 0, "", err
	}
	if !resp.Complete {
		return 0, "", fmt.Errorf("sweep %s is done but its results are incomplete", id)
	}
	merged, err := shard.Merge(m, []*shard.ResultSet{{Version: shard.ResultSetVersion, Results: resp.Results}})
	if err != nil {
		return 0, "", err
	}
	d, err := digestResults(merged)
	return lat, d, err
}

// serviceSetup is the sweep workloads' set-up procedure: open and recover
// a coordinator on an empty directory, serve it, start the workers, wait
// for each worker's first lease poll, and shut everything down.
func serviceSetup(e *env) error {
	dir, err := os.MkdirTemp(e.workdir, "setup-")
	if err != nil {
		return err
	}
	s, err := startService(e, dir)
	if err != nil {
		return err
	}
	err = s.waitPolls(e.nproc)
	return errors.Join(err, s.stop())
}

// tableManifest is the manifest `wsnenergy sweep -experiment table4`
// submits at the given options, with the given method specs.
func tableManifest(opt experiments.Options, methods []string) (*shard.Manifest, []core.Scenario, error) {
	scenarios, err := experiments.GridScenarios("table4", opt)
	if err != nil {
		return nil, nil, err
	}
	spec := shard.RunnerSpec{Base: opt.Base, Seed: opt.Base.Seed, Methods: methods, DeriveSeeds: true}
	m, err := shard.NewManifest("table4", spec, scenarios, 1)
	return m, scenarios, err
}

// window is the interval of one timed sweep, on the tracer's clock.
type window struct{ start, end time.Duration }

// warmPerCycle is how many times sweep-warm resubmits the manifest to one
// coordinator before it starts over on a fresh state directory. Several
// warm sweeps per cold one give the run more samples; a small bound keeps
// the coordinator's history small, because a durable coordinator rewrites
// a snapshot of every sweep it holds whenever one completes.
const warmPerCycle = 5

type sweepRun struct {
	e      *env
	warm   bool // time warm resubmissions, not cold sweeps
	opt    experiments.Options
	plain  *shard.Manifest
	traced *shard.Manifest // the same sweep with traced methods, built on first use
	want   string          // digest of the in-process reference run
	n      int
	timed  []window

	// sweep-warm's current cycle: its service, whether that service was
	// started traced, and how many warm sweeps it has left.
	svc       *service
	svcTraced bool
	left      int
}

// openSweep prepares a sweep workload. The expected output is computed
// in-process first: RunnerSpec.NewRunner().RunAll of the same manifest.
func openSweep(e *env, warm bool) (run, error) {
	opt, err := cliOptions(e.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	m, scenarios, err := tableManifest(opt, core.MethodSpecs())
	if err != nil {
		return nil, err
	}
	runner, err := m.Runner.NewRunner(core.WithParallelism(e.nproc), core.WithCacheBackend(core.NewMemoryBackend()))
	if err != nil {
		return nil, err
	}
	results, err := runner.RunAll(context.Background(), scenarios)
	if err != nil {
		return nil, err
	}
	want, err := digestResults(results)
	if err != nil {
		return nil, err
	}
	ref := newChecker(e.ref, "sweep", e.seed)
	if err := ref.check(want); err != nil {
		return nil, fmt.Errorf("in-process Table-4 run: %w", err)
	}
	return &sweepRun{e: e, warm: warm, opt: opt, plain: m, want: want}, nil
}

// manifest is the sweep to submit: with traced methods while tracing.
func (r *sweepRun) manifest() (*shard.Manifest, error) {
	if r.e.t == nil {
		return r.plain, nil
	}
	if r.traced == nil {
		names, err := tracedMethods(r.e.t, core.MethodSpecs())
		if err != nil {
			return nil, err
		}
		if r.traced, _, err = tableManifest(r.opt, names); err != nil {
			return nil, err
		}
	}
	return r.traced, nil
}

// op times one sweep. sweep-cold runs a cold sweep on a fresh state
// directory. sweep-warm resubmits the manifest to the current cycle's
// coordinator, whose cache the cycle's cold sweep filled, so every
// estimate is a remote cache hit.
func (r *sweepRun) op() (time.Duration, error) {
	m, err := r.manifest()
	if err != nil {
		return 0, err
	}
	if !r.warm {
		s, err := startService(r.e, r.nextDir())
		if err != nil {
			return 0, err
		}
		lat, err := r.timedSweep(s, m)
		return lat, errors.Join(err, s.stop())
	}
	if r.svc == nil || r.left == 0 || r.svcTraced != (r.e.t != nil) {
		if err := r.newCycle(m); err != nil {
			return 0, err
		}
	}
	r.left--
	return r.timedSweep(r.svc, m)
}

// nextDir names a fresh state directory. State directories stay until the
// run's work directory is removed: deleting each cycle's just-fsynced
// files between ops made ext4 (mounted with discard) issue discards that
// slowed the next sweeps, and the host, for tens of seconds.
func (r *sweepRun) nextDir() string {
	r.n++
	return filepath.Join(r.e.workdir, fmt.Sprintf("sweep-%d", r.n))
}

// timedSweep runs one timed sweep and checks it against the in-process
// run.
func (r *sweepRun) timedSweep(s *service, m *shard.Manifest) (time.Duration, error) {
	t0 := r.e.t.clock()
	lat, got, err := s.sweep(m)
	if err != nil {
		return 0, err
	}
	if got != r.want {
		return 0, fmt.Errorf("sweep digest %.12s, in-process run %.12s", got, r.want)
	}
	r.record(t0)
	return lat, nil
}

// newCycle replaces sweep-warm's service with a fresh one and runs its
// untimed cold sweep.
func (r *sweepRun) newCycle(m *shard.Manifest) error {
	if err := r.close(); err != nil {
		return err
	}
	s, err := startService(r.e, r.nextDir())
	if err != nil {
		return err
	}
	r.svc, r.svcTraced, r.left = s, r.e.t != nil, warmPerCycle
	_, got, err := s.sweep(m)
	if err == nil && got != r.want {
		err = fmt.Errorf("cold sweep digest %.12s, in-process run %.12s", got, r.want)
	}
	return err
}

// record notes a timed sweep's interval while tracing, so the layer
// metrics count only the spans of timed sweeps.
func (r *sweepRun) record(start time.Duration) {
	if r.e.t != nil {
		r.timed = append(r.timed, window{start, r.e.t.clock()})
	}
}

// sweepEndpoints are the protocol calls with per-call latency metrics.
// Heartbeats are not among them: workers send one per lease TTL/3 (10 s),
// which a sub-second sweep never reaches.
var sweepEndpoints = []string{"submit", "lease", "results", "cache_get", "cache_put", "status"}

func (r *sweepRun) layers(spans []span, ops int) map[string]float64 {
	in := func(s span) bool {
		for _, w := range r.timed {
			if s.Start >= w.start && s.Start < w.end {
				return true
			}
		}
		return false
	}
	durs := durations(spans, in)
	m := map[string]float64{}
	for _, ep := range sweepEndpoints {
		for _, side := range []string{"rtt", "server"} {
			d := durs["sweepd."+ep+"_"+side]
			m["sweepd."+ep+"_"+side+"_ms.p50"] = zeroNaN(percentile(d, 50))
			m["sweepd."+ep+"_"+side+"_ms.p90"] = zeroNaN(percentile(d, 90))
		}
	}
	polls := float64(len(durs["sweepd.lease_rtt"]))
	per := 1 / float64(max(ops, 1))
	m["sweepd.lease_polls_per_op"] = polls * per
	if polls > 0 {
		m["sweepd.lease_useful_ratio"] = float64(len(durs["sweepd.results_rtt"])) / polls
	}
	// Where a timed sweep's wall time goes: for each kind of worker
	// activity, the time at least one worker was doing it (the union of
	// its spans, so concurrent workers and the Runner's cache prefetch
	// overlapping an estimate are not double-counted), and the time no
	// worker was doing anything (idle: backoff between polls, waiting for
	// the last partition).
	kinds := map[string][]string{
		"est":         {"core.est_sim", "core.est_markov", "core.est_petri"},
		"cache_rtt":   {"sweepd.cache_get_rtt", "sweepd.cache_put_rtt"},
		"results_rtt": {"sweepd.results_rtt"},
		"lease_rtt":   {"sweepd.lease_rtt"},
	}
	var all []string
	for kind, names := range kinds {
		m["sweepd.attr."+kind+"_ms"] = ms(r.covered(spans, names...)) * per
		all = append(all, names...)
	}
	var wall time.Duration
	for _, w := range r.timed {
		wall += w.end - w.start
	}
	m["sweepd.attr.idle_ms"] = ms(wall-r.covered(spans, append(all, "sweepd.heartbeat_rtt", "sweepd.fail_rtt")...)) * per
	m["sweepd.attr.filecache_ms"] = ms(r.covered(spans, "core.filecache_get", "core.filecache_put")) * per
	return m
}

// covered is the total time, within the timed sweeps, that at least one
// span with one of the given names was open.
func (r *sweepRun) covered(spans []span, names ...string) time.Duration {
	var kids []span
	for _, s := range spans {
		if slices.Contains(names, s.Name) {
			kids = append(kids, s)
		}
	}
	var total time.Duration
	for _, w := range r.timed {
		total += covered(span{Start: w.start, End: w.end}, kids)
	}
	return total
}

// close stops sweep-warm's current service, if any.
func (r *sweepRun) close() error {
	if r.svc == nil {
		return nil
	}
	err := r.svc.stop()
	r.svc = nil
	return err
}
