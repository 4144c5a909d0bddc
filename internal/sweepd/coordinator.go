package sweepd

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Default coordinator parameters; Options fields of zero value fall back
// to these.
const (
	DefaultLeaseTTL   = 30 * time.Second
	DefaultPartitions = 8
	DefaultAttempts   = 5
)

// Options parameterizes a Coordinator.
type Options struct {
	// LeaseTTL is the heartbeat window: a lease not renewed within it is
	// reclaimed and its partition requeued.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one partition may be granted
	// before its sweep fails (a poisoned scenario must not loop forever).
	MaxAttempts int
	// DefaultPartitions is the lease-partition count for sweeps that do
	// not request their own.
	DefaultPartitions int
	// StateDir roots the coordinator's durable state (write-ahead journal,
	// accepted result sets, and — unless Cache overrides it — a persistent
	// file cache). Empty runs the coordinator purely in memory. Only Open
	// honors it; NewCoordinator ignores the field.
	StateDir string
	// CacheEntries bounds the default coordinator-hosted cache backend
	// (core.MemoryBackend.MaxEntries; 0 = 65536). Ignored when Cache or a
	// StateDir file cache is in effect.
	CacheEntries int
	// Cache optionally backs the coordinator-hosted remote result cache;
	// nil hosts an LRU-bounded core.MemoryBackend (or, under Open with a
	// StateDir, a persistent file backend).
	Cache core.CacheBackend
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Log receives progress lines (nil discards them).
	Log func(format string, args ...any)
}

// pending is a partition awaiting a worker.
type pending struct {
	shard    shard.Shard
	attempts int
}

// lease is one granted partition.
type lease struct {
	id       string
	sweepID  string
	worker   string
	part     pending
	started  time.Time
	deadline time.Time
}

// sweep is the coordinator's state for one submitted sweep.
type sweep struct {
	id       string
	manifest *shard.Manifest // the coordinator's own (re-planned) partition
	state    string
	errMsg   string
	queue    []pending
	active   int // leases currently out for this sweep
	sets     []*shard.ResultSet
	refs     []string // journal references of the accepted sets
	covered  map[int]bool
	merged   []core.Result // set when state == StateDone
	counters sweepCounters
}

// Coordinator owns sweep state: it re-plans submitted manifests against
// its cost model, leases partitions, reclaims expired leases, replans
// merge gaps, and merges completed sweeps. All methods are safe for
// concurrent use; Server exposes them over HTTP.
//
// With a journal attached (Open with a StateDir), every state transition
// is appended to the write-ahead journal before the in-memory state
// changes, and Recover rebuilds the coordinator from the journal after a
// restart — byte-identically, because content-derived seeds make
// re-planning the uncovered remainder produce exactly the results the
// lost leases would have.
type Coordinator struct {
	opts    Options
	cache   core.CacheBackend
	journal *Journal
	ready   atomic.Bool

	mu        sync.Mutex
	sweeps    map[string]*sweep
	order     []string // sweep ids in submission order
	leases    map[string]*lease
	costs     core.CostTable
	nextSweep int
	nextLease int
	draining  bool
}

// NewCoordinator builds a purely in-memory coordinator; zero-value
// options take the package defaults. Use Open for a durable one.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultAttempts
	}
	if opts.DefaultPartitions <= 0 {
		opts.DefaultPartitions = DefaultPartitions
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	cache := opts.Cache
	if cache == nil {
		cache = &core.MemoryBackend{MaxEntries: opts.CacheEntries}
	}
	c := &Coordinator{
		opts:   opts,
		cache:  cache,
		sweeps: make(map[string]*sweep),
		leases: make(map[string]*lease),
		costs:  core.CostTable{},
	}
	c.ready.Store(true)
	return c
}

// Open builds a coordinator whose state survives restarts: a write-ahead
// journal and accepted result sets live under opts.StateDir, and (unless
// opts.Cache overrides it) the hosted result cache persists there too.
// The coordinator starts not ready — call Recover to replay the journal
// before serving leases. An empty StateDir degrades to NewCoordinator.
func Open(opts Options) (*Coordinator, error) {
	if opts.StateDir == "" {
		return NewCoordinator(opts), nil
	}
	j, err := OpenJournal(opts.StateDir)
	if err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		fb, err := core.NewFileBackend(filepath.Join(opts.StateDir, "cache"))
		if err != nil {
			j.Close()
			return nil, err
		}
		opts.Cache = fb
	}
	c := NewCoordinator(opts)
	c.journal = j
	c.ready.Store(false)
	return c, nil
}

// Cache returns the backend behind the coordinator's remote result cache.
func (c *Coordinator) Cache() core.CacheBackend { return c.cache }

// Ready reports whether the coordinator has finished journal replay (a
// journal-less coordinator is ready immediately). The HTTP /v1/readyz
// endpoint and the lease path consult it.
func (c *Coordinator) Ready() bool { return c.ready.Load() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

// appendLocked journals one record (nil without a journal); the caller
// holds c.mu and must not apply the transition if this fails.
func (c *Coordinator) appendLocked(rec record) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Append(rec)
}

// appendBestEffortLocked journals one record, degrading a journal error
// to a log line — for transitions with no caller to bounce (lease
// reaping, sweep completion). A lost record here costs recovery counter
// precision, never result correctness: replay re-derives the queue from
// coverage, not from these records.
func (c *Coordinator) appendBestEffortLocked(rec record) {
	if err := c.appendLocked(rec); err != nil {
		c.logf("journal: dropping %s record: %v", rec.Kind, err)
	}
}

// Submit validates and admits a sweep. The manifest's own partition is
// discarded: the batch is re-planned into the requested partition count
// with the coordinator's current cost table as weights (placement
// independence makes this safe; cost weighting makes it fast).
func (c *Coordinator) Submit(req SubmitRequest) (SubmitResponse, error) {
	if req.Version != ProtocolVersion {
		return SubmitResponse{}, fmt.Errorf("sweepd: submit version %d, want %d", req.Version, ProtocolVersion)
	}
	if req.Manifest == nil {
		return SubmitResponse{}, errors.New("sweepd: submit carries no manifest")
	}
	if err := req.Manifest.Validate(); err != nil {
		return SubmitResponse{}, err
	}
	if !c.ready.Load() {
		return SubmitResponse{}, errors.New("sweepd: coordinator is recovering; retry shortly")
	}
	parts := req.Partitions
	if parts <= 0 {
		parts = c.opts.DefaultPartitions
	}
	scenarios := req.Manifest.Scenarios()
	if len(scenarios) == 0 {
		return SubmitResponse{}, errors.New("sweepd: sweep has no scenarios")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return SubmitResponse{}, errors.New("sweepd: coordinator is draining")
	}
	weight := c.weightLocked(req.Manifest.Runner.Methods)
	m, err := shard.NewManifestWeighted(req.Manifest.Experiment, req.Manifest.Runner, scenarios, parts, weight)
	if err != nil {
		return SubmitResponse{}, err
	}
	m.Extra = req.Manifest.Extra

	id := fmt.Sprintf("s%d", c.nextSweep+1)
	if err := c.appendLocked(record{Kind: recSubmit, Sweep: id, Manifest: m}); err != nil {
		return SubmitResponse{}, err
	}
	c.nextSweep++
	sw := &sweep{
		id:       id,
		manifest: m,
		state:    StateRunning,
		covered:  make(map[int]bool, m.Total),
	}
	for _, s := range m.Shards {
		if len(s.Items) > 0 {
			sw.queue = append(sw.queue, pending{shard: s})
		}
	}
	c.sweeps[sw.id] = sw
	c.order = append(c.order, sw.id)
	c.logf("sweep %s admitted: experiment=%q scenarios=%d partitions=%d",
		sw.id, m.Experiment, m.Total, len(sw.queue))
	return SubmitResponse{ID: sw.id}, nil
}

// weightLocked builds a WeightFunc from the current cost table, or nil
// (count balancing) when the table has no samples for these methods yet.
// The table is snapshotted so one plan prices consistently even as new
// worker samples merge in.
func (c *Coordinator) weightLocked(methods []string) shard.WeightFunc {
	ids, err := core.EstimatorIDs(methods...)
	if err != nil || len(c.costs) == 0 {
		return nil
	}
	table := maps.Clone(c.costs)
	sampled := false
	for _, id := range ids {
		if _, ok := table[id]; ok {
			sampled = true
			break
		}
	}
	if !sampled {
		return nil
	}
	return func(s core.Scenario) float64 {
		return table.ScenarioSeconds(s.Config, ids)
	}
}

// grantLocked journals and issues one lease for a partition.
func (c *Coordinator) grantLocked(sw *sweep, part pending, worker string, now time.Time) (*lease, error) {
	id := fmt.Sprintf("l%d", c.nextLease+1)
	if err := c.appendLocked(record{
		Kind: recLease, Sweep: sw.id, Lease: id, Worker: worker,
		ShardIndex: part.shard.Index,
	}); err != nil {
		return nil, err
	}
	c.nextLease++
	l := &lease{
		id:       id,
		sweepID:  sw.id,
		worker:   worker,
		part:     part,
		started:  now,
		deadline: now.Add(c.opts.LeaseTTL),
	}
	c.leases[id] = l
	sw.active++
	return l, nil
}

// leaseResponseLocked renders a granted lease as the wire answer.
func (c *Coordinator) leaseResponseLocked(sw *sweep, l *lease) LeaseResponse {
	runner := sw.manifest.Runner
	sh := l.part.shard
	return LeaseResponse{
		Version:    ProtocolVersion,
		Status:     LeaseWork,
		LeaseID:    l.id,
		SweepID:    sw.id,
		Runner:     &runner,
		Shard:      &sh,
		TTLSeconds: c.opts.LeaseTTL.Seconds(),
		CachePath:  CachePath,
	}
}

// Lease grants the next queued partition, preferring older sweeps, or
// answers LeaseWait when nothing is queued. A draining coordinator
// answers LeaseBye immediately — in-flight leases may still submit, but
// no new work leaves the queue. A recovering coordinator answers
// LeaseWait until replay finishes.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Version != ProtocolVersion {
		return LeaseResponse{}, fmt.Errorf("sweepd: lease version %d, want %d", req.Version, ProtocolVersion)
	}
	if !c.ready.Load() {
		return LeaseResponse{Version: ProtocolVersion, Status: LeaseWait}, nil
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	if c.draining {
		return LeaseResponse{Version: ProtocolVersion, Status: LeaseBye}, nil
	}
	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.state != StateRunning || len(sw.queue) == 0 {
			continue
		}
		part := sw.queue[0]
		l, err := c.grantLocked(sw, part, req.Worker, now)
		if err != nil {
			return LeaseResponse{}, err
		}
		sw.queue = sw.queue[1:]
		c.logf("lease %s: sweep %s shard %d (%d scenarios) -> worker %q",
			l.id, sw.id, part.shard.Index, len(part.shard.Items), req.Worker)
		return c.leaseResponseLocked(sw, l), nil
	}
	return LeaseResponse{Version: ProtocolVersion, Status: LeaseWait}, nil
}

// Heartbeat extends a lease's deadline by one TTL. An unknown (already
// reclaimed) lease errors so the worker abandons the partition instead of
// racing the replacement worker for submission.
func (c *Coordinator) Heartbeat(leaseID string) error {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("sweepd: lease %s not found (expired or completed)", leaseID)
	}
	l.deadline = now.Add(c.opts.LeaseTTL)
	return nil
}

// Results accepts a worker's submission for a lease: the result set is
// persisted and journaled by reference, folded into the sweep, the
// worker's cost table merges into the planning model, and any scenarios
// of the partition the submission did not cover are re-planned into a
// recovery partition.
func (c *Coordinator) Results(leaseID string, sub ResultSubmission) error {
	if sub.Version != ProtocolVersion {
		return fmt.Errorf("sweepd: results version %d, want %d", sub.Version, ProtocolVersion)
	}
	if sub.Results == nil {
		return errors.New("sweepd: submission carries no result set")
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("sweepd: lease %s not found (expired or completed)", leaseID)
	}
	sw := c.sweeps[l.sweepID]

	// Durability first: persist the set, journal the release and the
	// acceptance by reference, and only then mutate state. On journal
	// failure the worker sees an error and retries; an orphaned result
	// file is harmless.
	var ref string
	if c.journal != nil {
		var err error
		if ref, err = c.journal.WriteResults(sw.id, sub.Results); err != nil {
			return err
		}
		if err := c.journal.Append(record{Kind: recRelease, Sweep: sw.id, Lease: leaseID, Reason: releaseResults}); err != nil {
			return err
		}
		if err := c.journal.Append(record{Kind: recAccept, Sweep: sw.id, Lease: leaseID, Ref: ref}); err != nil {
			return err
		}
	}
	delete(c.leases, leaseID)
	sw.active--

	c.costs = c.costs.Merge(sub.Costs)
	sw.sets = append(sw.sets, sub.Results)
	if ref != "" {
		sw.refs = append(sw.refs, ref)
	}
	for _, item := range sub.Results.Results {
		if item.Index >= 0 && item.Index < sw.manifest.Total {
			sw.covered[item.Index] = true
		}
	}
	// A partial submission (worker gave up mid-shard) leaves a gap inside
	// this partition; replan exactly those indices as a recovery partition.
	var gap []int
	for _, it := range l.part.shard.Items {
		if !sw.covered[it.Index] {
			gap = append(gap, it.Index)
		}
	}
	if len(gap) > 0 {
		if err := c.requeueGapLocked(sw, l.part, gap); err != nil {
			return err
		}
	}
	c.logf("lease %s: sweep %s shard %d done (%d results, %d missing)",
		leaseID, sw.id, l.part.shard.Index, len(sub.Results.Results), len(gap))
	c.maybeFinishLocked(sw)
	return nil
}

// Fail reports a lease the worker could not run; the partition requeues
// (bounded by MaxAttempts).
func (c *Coordinator) Fail(leaseID string, req FailRequest) error {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("sweepd: lease %s not found (expired or completed)", leaseID)
	}
	sw := c.sweeps[l.sweepID]
	if err := c.appendLocked(record{Kind: recRelease, Sweep: sw.id, Lease: leaseID, Reason: releaseFail}); err != nil {
		return err
	}
	delete(c.leases, leaseID)
	sw.active--
	c.logf("lease %s: worker %q failed sweep %s shard %d: %s",
		leaseID, l.worker, sw.id, l.part.shard.Index, req.Error)
	c.requeueLocked(sw, l.part, requeueFailed, req.Error)
	c.maybeFinishLocked(sw)
	return nil
}

// reapLocked reclaims expired leases: each reclaimed partition re-enters
// its sweep's queue with one more attempt on the clock.
func (c *Coordinator) reapLocked(now time.Time) {
	var ids []string
	for id, l := range c.leases {
		if now.After(l.deadline) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := c.leases[id]
		sw := c.sweeps[l.sweepID]
		c.appendBestEffortLocked(record{Kind: recRelease, Sweep: sw.id, Lease: id, Reason: releaseExpired})
		delete(c.leases, id)
		sw.active--
		sw.counters.Expired++
		c.logf("lease %s: worker %q missed its deadline; requeueing sweep %s shard %d",
			id, l.worker, sw.id, l.part.shard.Index)
		c.requeueLocked(sw, l.part, requeueExpired, "lease expired")
		c.maybeFinishLocked(sw)
	}
}

// Requeue reason codes, journaled for cumulative counter replay.
const (
	requeueExpired   = "expired"
	requeueFailed    = "failed"
	requeueGap       = "gap"
	requeueMerge     = "merge"
	requeueRecovered = "recovered"
)

// requeueLocked puts a partition back in the queue, failing the sweep if
// the partition has exhausted its attempts. Scenarios already covered by
// other submissions are dropped from the requeued partition so recovery
// never re-runs completed work; a partition whose scenarios all landed
// elsewhere dissolves without costing an attempt.
func (c *Coordinator) requeueLocked(sw *sweep, part pending, code, detail string) {
	var remaining []int
	for _, it := range part.shard.Items {
		if !sw.covered[it.Index] {
			remaining = append(remaining, it.Index)
		}
	}
	if len(remaining) == 0 {
		return // everything landed elsewhere; nothing to redo
	}
	part.attempts++
	if part.attempts >= c.opts.MaxAttempts {
		c.failSweepLocked(sw, fmt.Sprintf("partition %d failed %d times (last: %s)",
			part.shard.Index, part.attempts, detail))
		return
	}
	if len(remaining) != len(part.shard.Items) {
		shards, err := shard.Replan(sw.manifest, remaining, 1)
		if err != nil {
			c.failSweepLocked(sw, err.Error())
			return
		}
		part.shard.Items = shards[0].Items
	}
	c.appendBestEffortLocked(record{Kind: recRequeue, Sweep: sw.id, Reason: code})
	sw.counters.Requeues++
	if code == requeueGap || code == requeueMerge {
		sw.counters.Replans++
	}
	sw.queue = append(sw.queue, part)
}

// failSweepLocked journals and applies a sweep's terminal failure.
func (c *Coordinator) failSweepLocked(sw *sweep, msg string) {
	sw.state = StateFailed
	sw.errMsg = msg
	c.appendBestEffortLocked(record{Kind: recState, Sweep: sw.id, State: StateFailed, Error: msg})
	c.logf("sweep %s failed: %s", sw.id, msg)
}

// requeueGapLocked turns a merge gap (missing global indices) into a
// recovery partition via shard.Replan — the exact-missing-indices
// recovery path.
func (c *Coordinator) requeueGapLocked(sw *sweep, from pending, missing []int) error {
	shards, err := shard.Replan(sw.manifest, missing, 1)
	if err != nil {
		c.failSweepLocked(sw, err.Error())
		return err
	}
	from.shard.Items = shards[0].Items
	c.requeueLocked(sw, from, requeueGap, "partial results")
	return nil
}

// maybeFinishLocked merges the sweep once nothing is queued or leased,
// then compacts the journal so it tracks the live sweep set instead of
// growing with history. A merge gap (defensive: incremental coverage
// should have caught it) re-plans the missing indices instead of failing.
func (c *Coordinator) maybeFinishLocked(sw *sweep) {
	if sw.state != StateRunning || len(sw.queue) > 0 || sw.active > 0 {
		return
	}
	results, err := shard.Merge(sw.manifest, sw.sets)
	if err == nil {
		sw.merged = results
		sw.state = StateDone
		c.appendBestEffortLocked(record{Kind: recState, Sweep: sw.id, State: StateDone})
		c.compactLocked()
		c.logf("sweep %s complete: %d scenarios merged", sw.id, sw.manifest.Total)
		return
	}
	var inc *shard.IncompleteError
	if errors.As(err, &inc) {
		shards, rerr := shard.Replan(sw.manifest, inc.Missing, 1)
		if rerr == nil {
			c.requeueLocked(sw, pending{shard: shards[0]}, requeueMerge, "merge gap")
			return
		}
		err = rerr
	}
	c.failSweepLocked(sw, err.Error())
	c.logf("sweep %s failed at merge: %v", sw.id, err)
}

// SweepStatus reports one sweep.
func (c *Coordinator) SweepStatus(id string) (SweepStatus, error) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	sw, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, fmt.Errorf("sweepd: sweep %s not found", id)
	}
	return c.sweepStatusLocked(sw), nil
}

func (c *Coordinator) sweepStatusLocked(sw *sweep) SweepStatus {
	return SweepStatus{
		ID:         sw.id,
		Experiment: sw.manifest.Experiment,
		State:      sw.state,
		Total:      sw.manifest.Total,
		Completed:  len(sw.covered),
		Queued:     len(sw.queue),
		Leased:     sw.active,
		Error:      sw.errMsg,
		Expired:    sw.counters.Expired,
		Requeues:   sw.counters.Requeues,
		Replans:    sw.counters.Replans,
	}
}

// Status reports the whole service. The fleet counters are sums of the
// per-sweep counters, which the journal persists — so they are cumulative
// across coordinator restarts, not per-process.
func (c *Coordinator) Status() CoordinatorStatus {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	st := CoordinatorStatus{
		Version:  ProtocolVersion,
		Ready:    c.ready.Load(),
		Draining: c.draining,
	}
	for _, id := range c.order {
		sw := c.sweeps[id]
		st.Sweeps = append(st.Sweeps, c.sweepStatusLocked(sw))
		st.ExpiredLeases += sw.counters.Expired
		st.Requeues += sw.counters.Requeues
		st.Replans += sw.counters.Replans
	}
	for _, l := range c.leases {
		st.Leases = append(st.Leases, LeaseInfo{
			ID:        l.id,
			SweepID:   l.sweepID,
			Worker:    l.worker,
			Scenarios: len(l.part.shard.Items),
			StartedAt: l.started,
			Deadline:  l.deadline,
		})
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	return st
}

// SweepResults reports a sweep's completed scenarios so far, in global
// index order; Complete is true once the sweep has merged.
func (c *Coordinator) SweepResults(id string) (ResultsResponse, error) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(now)
	sw, ok := c.sweeps[id]
	if !ok {
		return ResultsResponse{}, fmt.Errorf("sweepd: sweep %s not found", id)
	}
	resp := ResultsResponse{
		Version:  ProtocolVersion,
		State:    sw.state,
		Error:    sw.errMsg,
		Complete: sw.state == StateDone,
	}
	byIndex := make(map[int]shard.ResultItem, len(sw.covered))
	for _, rs := range sw.sets {
		for _, item := range rs.Results {
			if _, dup := byIndex[item.Index]; !dup {
				byIndex[item.Index] = item
			}
		}
	}
	indices := make([]int, 0, len(byIndex))
	for i := range byIndex {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		resp.Results = append(resp.Results, byIndex[i])
	}
	return resp, nil
}

// Merged returns a completed sweep's merged results (the same slice shape
// core.Runner.RunAll produces) — the in-process path tests and benchmarks
// use to skip the client-side re-merge.
func (c *Coordinator) Merged(id string) ([]core.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("sweepd: sweep %s not found", id)
	}
	if sw.state != StateDone {
		return nil, fmt.Errorf("sweepd: sweep %s is %s, not done", id, sw.state)
	}
	return sw.merged, nil
}

// CostTable snapshots the coordinator's merged planning model.
func (c *Coordinator) CostTable() core.CostTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.costs)
}

// Drain stops admitting sweeps and granting leases and tells polling
// workers to exit; in-flight leases may still heartbeat and submit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
}

// Shutdown drains the coordinator, waits up to timeout (wall clock) for
// in-flight leases to submit or fail, journals a clean-shutdown record,
// and closes the journal. Leases still out when the wait expires are
// abandoned to the journal: the next Recover expires them and re-plans
// their uncovered scenarios.
func (c *Coordinator) Shutdown(timeout time.Duration) {
	c.Drain()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		n := len(c.leases)
		c.mu.Unlock()
		if n == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appendBestEffortLocked(record{Kind: recShutdown})
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			c.logf("journal: close: %v", err)
		}
		c.journal = nil
	}
}
