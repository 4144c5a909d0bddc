package petri

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// MemoryPolicy selects how timed transitions treat their sampled firing
// delay across marking changes (German's execution policies).
type MemoryPolicy int

const (
	// RaceEnable resamples the delay whenever the transition becomes
	// enabled after having been disabled; a transition that stays enabled
	// across other firings keeps its scheduled time. This is the standard
	// DSPN policy and the one the paper's CPU model requires (the Power
	// Down Threshold timer restarts when a job arrives).
	RaceEnable MemoryPolicy = iota
	// RaceAge keeps the remaining delay across disabling: when the
	// transition is re-enabled, the clock resumes where it stopped.
	RaceAge
)

func (p MemoryPolicy) String() string {
	switch p {
	case RaceEnable:
		return "race-enable"
	case RaceAge:
		return "race-age"
	default:
		return fmt.Sprintf("MemoryPolicy(%d)", int(p))
	}
}

// SimOptions configures a simulation run.
type SimOptions struct {
	// Seed drives all sampling; identical seeds reproduce runs exactly.
	Seed uint64
	// Warmup is simulated but excluded from statistics.
	Warmup float64
	// Duration is the measured period after warmup. Required.
	Duration float64
	// Memory selects the execution policy (default RaceEnable).
	Memory MemoryPolicy
	// MaxVanishingChain bounds consecutive immediate firings between two
	// tangible markings; exceeding it indicates an immediate-transition
	// livelock. Default 1e5.
	MaxVanishingChain int
}

// SimResult reports time-averaged statistics over the measured period.
type SimResult struct {
	// Time is the measured duration.
	Time float64
	// PlaceAvg is the time-averaged token count per place ("steady-state
	// percentage" when the place holds at most one token).
	PlaceAvg []float64
	// PlaceNonEmpty is the fraction of measured time each place held at
	// least one token.
	PlaceNonEmpty []float64
	// Firings counts firings per transition during the measured period.
	Firings []uint64
	// Throughput is firings per unit time.
	Throughput []float64
	// Deadlocked reports that the net reached a marking with no enabled
	// transitions before the horizon; the final marking is then held for
	// the remaining time (absorbing state).
	Deadlocked bool
	// FinalMarking is the marking at the end of the run.
	FinalMarking Marking
}

// PlaceAvgByName returns the average token count of the named place.
func (r *SimResult) PlaceAvgByName(n *Net, name string) float64 {
	id, ok := n.PlaceByName(name)
	if !ok {
		panic(fmt.Sprintf("petri: no place named %q", name))
	}
	return r.PlaceAvg[id]
}

// Simulate executes the net once and returns time-averaged statistics.
//
// It compiles the net first; callers running many simulations of the same
// net (replications, sweeps) should Compile once and use
// Compiled.Simulate to amortize the compilation.
func Simulate(n *Net, opt SimOptions) (*SimResult, error) {
	return SimulateContext(context.Background(), n, opt)
}

// SimulateContext is Simulate with cooperative cancellation: the engine
// polls the context every few hundred events and aborts the run
// mid-simulation with ctx.Err() when it is cancelled.
func SimulateContext(ctx context.Context, n *Net, opt SimOptions) (*SimResult, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.SimulateContext(ctx, opt)
}

// Simulate executes the compiled net once and returns time-averaged
// statistics. It is safe to call concurrently from many goroutines.
func (c *Compiled) Simulate(opt SimOptions) (*SimResult, error) {
	return c.SimulateContext(context.Background(), opt)
}

// SimulateContext is Compiled.Simulate with cooperative cancellation; see
// the package-level SimulateContext.
func (c *Compiled) SimulateContext(ctx context.Context, opt SimOptions) (*SimResult, error) {
	e, err := c.acquireEngine(ctx, opt)
	if err != nil {
		return nil, err
	}
	defer c.releaseEngine(e)
	return e.run()
}

// engine is the single-run execution state of a compiled net. Every event
// costs work proportional to what it changes: the fired transition's arcs,
// the transitions adjacent to the touched places, and the heap reshuffles —
// never the size of the whole net. The steady-state loop performs no heap
// allocations; all scratch buffers are preallocated in newEngines, and the
// whole engine is recycled between runs through the compiled net's pool
// (acquireEngine resets it in place instead of reallocating).
type engine struct {
	comp *Compiled
	net  *Net
	opt  SimOptions
	rng  xrand.Rand

	// ctx is polled every cancelCheckStride events by fireTimed; nil
	// disables polling. ctxCountdown counts events down to the next poll.
	ctx          context.Context
	ctxCountdown int

	marking Marking
	now     float64

	// fireAt[t] is the absolute scheduled firing time of timed transition
	// t, or +Inf when not scheduled (disabled).
	fireAt []float64
	// remain[t] stores the interrupted remaining delay under RaceAge;
	// -1 means no stored age.
	remain []float64
	// degree[t] is the enabling degree the current schedule of a
	// multi-server transition was sampled at; a change forces a
	// (memoryless) resample.
	degree []int

	// heap is a 4-ary min-heap over the scheduled timed transitions,
	// ordered by (fireAt, id) — the id tie-break reproduces the
	// lowest-index-first determinism of a linear scan and makes the
	// minimum unique, so the pop order is independent of the heap's
	// internal arrangement (and of its arity). Nodes cache the firing time
	// inline, so sifting compares sequential node memory instead of
	// chasing fireAt through a second array. heapPos[t] is t's index in
	// heap, -1 while unscheduled.
	//
	// Nets with at most linearSchedulerMax timed transitions skip the heap
	// entirely (linear=true): heapPos degrades to a 0/-1 scheduled flag,
	// nSched counts the scheduled timers, and nextTimed scans fireAt
	// directly. The scan visits c.timed in ascending id with a strict
	// less-than, which is exactly the heap's (fireAt, id) order, so the
	// two schedulers pop identical event sequences.
	heap    []timerNode
	heapPos []int32
	linear  bool
	// shared marks an engine carved from a slab together with others (see
	// newEngines); releaseEngine does not pool it.
	shared bool
	nSched int

	// unsat[t] counts the unsatisfied enabling conditions of unguarded
	// single-server transition t (inputs below weight, inhibitors at or
	// above weight, capacity bounds exceeded); zero means enabled. It is
	// maintained incrementally by the compiled threshold conditions as
	// token counts cross arc weights. Guarded transitions are outside the
	// scheme: guardEnabled caches their last full evaluation.
	unsat        []int32
	guardEnabled []bool
	// groupLive[g] counts the enabled members of immediate-priority group
	// g, kept in lockstep with unsat/guardEnabled; liveGroups counts the
	// groups with at least one enabled member, so "is the marking
	// tangible?" is a single compare.
	groupLive  []int32
	liveGroups int

	// bndBroken is set by Session.Inject: injected tokens escape the
	// reachability set the compiler's capacity/P-invariant bounds cover,
	// so fused chains flagged boundsDep stop applying (chainOK). The
	// injection-proof chains keep running — their facts are re-verified at
	// fire time or by runtime preconditions.
	bndBroken bool

	// dirty accumulates the places the current event's firings changed and
	// candTimed the timed transitions whose enabling flipped. Both may
	// hold duplicates — the statistics sweep skips places whose count
	// matches the accumulator's held value, and a second syncOne on an
	// already-reconciled transition is a no-op — so the hot loop appends
	// without dedup bookkeeping.
	dirty     []int32
	candTimed []int32
	// immScratch is the reusable conflict-set buffer.
	immScratch []int32
	// curTimed is the timed transition whose firing started the current
	// event (-1 during startup), excluded from flip collection because the
	// timer sync re-checks it unconditionally.
	curTimed int32

	// Inline per-place time-weighted accumulators, replicating
	// stats.TimeWeighted's lazy-integration arithmetic operation for
	// operation so the reported averages are bit-identical to the scalar
	// engine's: integral += lastV * (now - lastT) exactly when the value
	// changes.
	measuring    bool
	raceAge      bool
	measureStart float64
	pstats       []placeStat
	firings      []uint64
}

// placeStat holds one place's token-count and non-empty accumulators in a
// single cache-friendly record.
type placeStat struct {
	tokInt, tokT, tokV    float64
	busyInt, busyT, busyV float64
}

// timerNode is one scheduler-heap entry: a scheduled timed transition with
// its absolute firing time cached inline (the authoritative copy stays in
// engine.fireAt).
type timerNode struct {
	at float64
	id int32
}

// cancelCheckStride is how many timed-event firings pass between context
// polls: frequent enough that cancellation lands promptly in wall-clock
// terms, rare enough that the poll is invisible in event-loop profiles.
const cancelCheckStride = 512

// linearSchedulerMax is the largest timed-transition count for which the
// engine replaces the scheduler heap with a direct fireAt scan. At this
// size the scan is one or two cache lines, cheaper than maintaining heap
// order on every schedule/unschedule; past it the heap's O(log n) wins.
const linearSchedulerMax = 16

// validate rejects options no run can start from.
func (o SimOptions) validate() error {
	if o.Warmup < 0 {
		return fmt.Errorf("petri: SimOptions.Warmup must be non-negative, got %v", o.Warmup)
	}
	if o.Duration <= 0 {
		return fmt.Errorf("petri: duration must be positive, got %v", o.Duration)
	}
	return nil
}

// acquireEngine validates the options and returns a run-ready engine for
// the compiled net: a recycled one from the pool when available, a freshly
// allocated one otherwise. Callers must return it with releaseEngine once
// the run's results have been copied out.
func (c *Compiled) acquireEngine(ctx context.Context, opt SimOptions) (*engine, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if e, ok := c.enginePool.Get().(*engine); ok {
		e.reset(ctx, opt)
		return e, nil
	}
	return newEngine(c, ctx, opt), nil
}

// releaseEngine returns an engine to its compiled net's pool. The engine's
// scratch state may be reused by any later acquireEngine, so results must
// not alias engine-owned slices (run copies them out). The context is
// dropped eagerly: an idle pooled engine must not pin a finished run's
// request-scoped values or cancel chain. An engine that shares its slab
// with others is left to the garbage collector instead: pooling it would
// keep the whole slab alive.
func (c *Compiled) releaseEngine(e *engine) {
	e.ctx = nil
	if !e.shared {
		c.enginePool.Put(e)
	}
}

// newEngine allocates the scratch state of one engine over a compiled net
// and resets it for a first run — the n = 1 case of newEngines. Options
// must be pre-validated (acquireEngine is the only caller besides tests).
func newEngine(c *Compiled, ctx context.Context, opt SimOptions) *engine {
	e := &newEngines(c, 1)[0]
	e.reset(ctx, opt)
	return e
}

// slab hands out consecutive windows of one allocation. Each window's
// capacity is capped at its length, so an append past it reallocates
// instead of running into the next window.
type slab[T any] []T

func (s *slab[T]) take(n int) []T {
	w := (*s)[:n:n]
	*s = (*s)[n:]
	return w
}

// newEngines allocates the scratch state of n engines over a compiled net:
// one allocation per element type, from which every engine's slices are
// carved. Growable buffers (heap, dirty, candTimed, immScratch) are carved
// empty with their share as capacity, so the engines never share memory
// however their buffers grow. The engines still need a reset before use.
func newEngines(c *Compiled, n int) []engine {
	net := c.net
	nT, nP, nTimed, nG := len(net.Transitions), len(net.Places), len(c.timed), len(c.groups)
	maxGroup := 0
	for _, g := range c.groups {
		if len(g.members) > maxGroup {
			maxGroup = len(g.members)
		}
	}
	ints := make(slab[int], n*(nP+nT))
	floats := make(slab[float64], n*2*nT)
	int32s := make(slab[int32], n*(2*nT+nG+4*nP+4*nTimed+maxGroup))
	bools := make(slab[bool], n*nT)
	counts := make(slab[uint64], n*nT)
	pstats := make(slab[placeStat], n*nP)
	// The linear scheduler scans fireAt and never touches the heap, so its
	// engines get no heap storage.
	linear, nHeap := nTimed <= linearSchedulerMax, nTimed
	if linear {
		nHeap = 0
	}
	timers := make(slab[timerNode], n*nHeap)
	es := make([]engine, n)
	for i := range es {
		// Filled field by field in place: assigning a whole engine literal
		// would copy it through a temporary, and while a GC cycle runs that
		// copy pays a bulk write barrier over every pointer word.
		e := &es[i]
		e.comp, e.net = c, net
		e.marking = ints.take(nP)
		e.degree = ints.take(nT)
		e.fireAt = floats.take(nT)
		e.remain = floats.take(nT)
		e.heap = timers.take(nHeap)[:0]
		e.heapPos = int32s.take(nT)
		e.unsat = int32s.take(nT)
		e.guardEnabled = bools.take(nT)
		e.groupLive = int32s.take(nG)
		e.dirty = int32s.take(4 * nP)[:0]
		e.candTimed = int32s.take(4 * nTimed)[:0]
		e.immScratch = int32s.take(maxGroup)[:0]
		e.pstats = pstats.take(nP)
		e.firings = counts.take(nT)
		e.linear = linear
		e.shared = n > 1
	}
	return es
}

// reset rewinds an engine to the exact state newEngine produces for the
// given options, without allocating: the initial marking is copied back in,
// timers, counters, accumulators and the scheduler heap are cleared, and
// the embedded RNG is reseeded in place. A pooled engine that went through
// reset is bit-for-bit indistinguishable from a freshly allocated one — the
// equivalence suite in equiv_test.go pins this.
func (e *engine) reset(ctx context.Context, opt SimOptions) {
	if opt.MaxVanishingChain == 0 {
		opt.MaxVanishingChain = 100000
	}
	e.opt = opt
	e.ctx = ctx
	e.ctxCountdown = cancelCheckStride
	e.rng.SeedStream(opt.Seed, 0)
	e.now = 0
	for i, p := range e.net.Places {
		e.marking[i] = p.Initial
	}
	for i := range e.fireAt {
		e.fireAt[i] = math.Inf(1)
		e.remain[i] = -1
		e.degree[i] = 0
		e.heapPos[i] = -1
		e.unsat[i] = 0
		e.guardEnabled[i] = false
		e.firings[i] = 0
	}
	e.heap = e.heap[:0]
	e.nSched = 0
	for i := range e.groupLive {
		e.groupLive[i] = 0
	}
	e.liveGroups = 0
	e.bndBroken = false
	e.dirty = e.dirty[:0]
	e.candTimed = e.candTimed[:0]
	e.curTimed = -1
	e.measuring = false
	e.raceAge = opt.Memory == RaceAge
	e.measureStart = 0
	for i := range e.pstats {
		e.pstats[i] = placeStat{}
	}
}

// start resolves immediates enabled in the initial marking and schedules
// the initial timers, leaving the engine at a tangible marking at time 0.
func (e *engine) start() error {
	c := e.comp
	// Seed the unsatisfied-condition counters from the initial marking;
	// the compiled conditions are the single source of truth for which
	// (place, threshold) pairs matter.
	for p := range e.marking {
		v := e.marking[p]
		for _, cd := range c.conds[c.condOff[p]:c.condOff[p+1]] {
			if cd.unsatisfied(v) {
				e.unsat[cd.transition()]++
			}
		}
	}
	// Seed the guarded caches and the per-group enabled counts.
	for gi := range c.groups {
		for _, t := range c.groups[gi].members {
			var en bool
			if c.guarded[t] {
				en = c.enabled(e.marking, t)
				e.guardEnabled[t] = en
			} else {
				en = e.unsat[t] == 0
			}
			if en {
				e.groupLive[gi]++
			}
		}
	}
	for _, n := range e.groupLive {
		if n > 0 {
			e.liveGroups++
		}
	}
	if err := e.resolveImmediates(0); err != nil {
		return err
	}
	// The initial timer sync visits every timed transition in id order —
	// one full pass, exactly like the first syncTimers of the scalar
	// engine, so the RNG draw order is preserved. Flip candidates
	// collected during the initial vanishing chain are subsumed by it.
	for _, t := range e.comp.timed {
		e.syncOne(t)
	}
	e.candTimed = e.candTimed[:0]
	e.clearDirty()
	return nil
}

func (e *engine) run() (*SimResult, error) {
	n := e.net
	horizon := e.opt.Warmup + e.opt.Duration
	if err := e.start(); err != nil {
		return nil, err
	}
	if e.opt.Warmup == 0 {
		e.beginMeasurement()
	}

	deadlocked := false
	for {
		t, id := e.nextTimed()
		if id < 0 {
			deadlocked = true
			break
		}
		if t > horizon {
			break
		}
		// Crossing the warmup boundary starts measurement at exactly the
		// warmup time with the pre-event marking.
		if !e.measuring && t >= e.opt.Warmup {
			e.now = e.opt.Warmup
			e.beginMeasurement()
		}
		e.advanceTo(t)
		if err := e.fireTimed(int32(id)); err != nil {
			return nil, err
		}
	}
	if !e.measuring {
		// Deadlock during warmup: measure the absorbing marking from the
		// warmup boundary onward.
		e.now = e.opt.Warmup
		e.beginMeasurement()
	}
	e.advanceTo(horizon)

	res := &SimResult{
		Time:          e.opt.Duration,
		PlaceAvg:      make([]float64, len(n.Places)),
		PlaceNonEmpty: make([]float64, len(n.Places)),
		// Copied, not aliased: the engine (and its firings buffer) goes
		// back to the pool when this run's caller releases it.
		Firings:      append([]uint64(nil), e.firings...),
		Throughput:   make([]float64, len(n.Transitions)),
		Deadlocked:   deadlocked,
		FinalMarking: e.marking.Clone(),
	}
	for i := range n.Places {
		st := &e.pstats[i]
		res.PlaceAvg[i] = e.timeAvg(st.tokInt, st.tokT, st.tokV, horizon)
		res.PlaceNonEmpty[i] = e.timeAvg(st.busyInt, st.busyT, st.busyV, horizon)
	}
	for i := range n.Transitions {
		res.Throughput[i] = float64(e.firings[i]) / e.opt.Duration
	}
	return res, nil
}

func (e *engine) beginMeasurement() {
	e.measuring = true
	e.measureStart = e.now
	for i, v := range e.marking {
		e.pstats[i] = placeStat{
			tokT: e.now, tokV: float64(v),
			busyT: e.now, busyV: boolTo01(v > 0),
		}
	}
	// Reset firing counters: only measured-period firings count.
	for i := range e.firings {
		e.firings[i] = 0
	}
}

// timeAvg finalizes one accumulator at the horizon, mirroring
// stats.TimeWeighted.MeanAt (integrate the held value to the horizon,
// divide by the measured span).
func (e *engine) timeAvg(integral, lastT, lastV, h float64) float64 {
	if h > lastT {
		integral += lastV * (h - lastT)
	}
	return integral / (h - e.measureStart)
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// advanceTo moves the clock to t.
func (e *engine) advanceTo(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("petri: clock moved backwards %v -> %v", e.now, t))
	}
	e.now = t
}

// clearDirty resets the touched-place set after a timer sync.
func (e *engine) clearDirty() {
	e.dirty = e.dirty[:0]
}

// fireAndUpdate fires transition t (which must be enabled) by applying its
// compiled net deltas — including the deltas of any vanishing chain fused
// into t's program, so a whole deterministic immediate sequence lands as
// one combined marking change — and propagates each place change through
// that place's threshold conditions: unsatisfied-condition counters move by
// one exactly when the count crosses an arc weight, immediate enabled
// counts (groupLive) track counter flips, and single-server timed
// transitions whose enabling flipped are collected as candidates for the
// end-of-chain timer sync. Self-loops have no net delta and cost nothing;
// nothing here scans a transition's arcs to re-derive enabling.
func (e *engine) fireAndUpdate(t int32) {
	c := e.comp
	e.applyProg(c.progs[c.progOff[t]:c.progOff[t+1]])
}

// applyProg interprets one firing program against the marking and the
// incremental enabling state. It is the shared body of the main (fused) and
// solo program paths.
func (e *engine) applyProg(prog []uint64) {
	c := e.comp
	marking := e.marking
	unsat := e.unsat
	for i := 0; i < len(prog); {
		h := prog[i]
		i++
		p := int32(h & 0x7fffffff)
		end := i + int(uint16(h>>32))
		v0 := marking[p]
		v1 := v0 + int(int16(uint16(h>>48)))
		marking[p] = v1
		e.dirty = append(e.dirty, p)
		for ; i < end; i++ {
			cd := cond(prog[i])
			// Satisfaction flips exactly when (count < thresh) changes,
			// whichever form the condition has.
			thresh := cd.thresh()
			l1 := v1 < thresh
			if (v0 < thresh) == l1 {
				continue
			}
			tt := cd.transition()
			if l1 != cd.geq() { // became unsatisfied
				if unsat[tt] == 0 { // enabled -> disabled flip
					e.noteFlip(tt, cd.timed(), false)
				}
				unsat[tt]++
			} else {
				unsat[tt]--
				if unsat[tt] == 0 { // disabled -> enabled flip
					e.noteFlip(tt, cd.timed(), true)
				}
			}
		}
	}
	// Guards may read any place: re-evaluate guarded immediates after any
	// marking change. (The list is empty for guard-free nets.)
	if len(c.guardedImms) > 0 && len(prog) > 0 {
		for _, i := range c.guardedImms {
			en := c.enabled(marking, i)
			if en != e.guardEnabled[i] {
				e.guardEnabled[i] = en
				e.bumpGroup(c.groupOf[i], en)
			}
		}
	}
}

// chainOK reports whether t's fused chain (and terminal conflict draw)
// applies at the current marking: the chain's compile-time bounds must
// still be valid (boundsDep vs bndBroken) and every runtime precondition
// must hold against the pre-firing marking. Callers must check BEFORE
// applying any program of t.
func (e *engine) chainOK(t int32) bool {
	c := e.comp
	if c.boundsDep[t] && e.bndBroken {
		return false
	}
	for _, pc := range c.preconds[c.precondOff[t]:c.precondOff[t+1]] {
		if !pc.holds(e.marking[pc.place()]) {
			return false
		}
	}
	return true
}

// fireImm fires immediate transition chosen — with its fused chain when the
// chain's preconditions hold, bare otherwise — charging the zero-time
// firings against the livelock bound. It returns the updated step count.
func (e *engine) fireImm(chosen int32, steps int) (int, error) {
	c := e.comp
	fused := int(c.fusedOff[chosen+1] - c.fusedOff[chosen])
	prog := c.progs[c.progOff[chosen]:c.progOff[chosen+1]]
	if fused != 0 && !e.chainOK(chosen) {
		fused = 0
		prog = c.soloProg(chosen)
	}
	if steps+1+fused > e.opt.MaxVanishingChain {
		// The chain fused into this firing would cross the livelock
		// bound mid-block, exactly where the unfused engine errors.
		return steps, fmt.Errorf("petri: immediate-transition livelock after %d zero-time firings (marking %v)", e.opt.MaxVanishingChain, e.marking)
	}
	e.applyProg(prog)
	steps += 1 + fused
	if e.measuring {
		e.firings[chosen]++
		if fused != 0 {
			e.countFusedFirings(chosen)
		}
	}
	return steps, nil
}

// noteFlip reacts to an enabling flip of an unguarded single-server
// transition: immediates adjust their priority group's enabled count,
// timed transitions become candidates for the end-of-chain timer sync.
// Flips of the timed transition that started the current event are
// dropped: syncDirtyTimers always re-checks it explicitly.
func (e *engine) noteFlip(t int32, timed, enabled bool) {
	if timed {
		if t != e.curTimed {
			e.candTimed = append(e.candTimed, t)
		}
		return
	}
	e.bumpGroup(e.comp.groupOf[t], enabled)
}

// bumpGroup adjusts a priority group's enabled-member count and the count
// of live groups.
func (e *engine) bumpGroup(g int32, enabled bool) {
	if enabled {
		if e.groupLive[g] == 0 {
			e.liveGroups++
		}
		e.groupLive[g]++
	} else {
		e.groupLive[g]--
		if e.groupLive[g] == 0 {
			e.liveGroups--
		}
	}
}

// nextTimed returns the earliest scheduled timed transition, breaking time
// ties by transition index (deterministic). id is -1 when nothing is
// scheduled.
func (e *engine) nextTimed() (float64, int) {
	if e.linear {
		if e.nSched == 0 {
			return math.Inf(1), -1
		}
		// Ascending-id scan with strict less-than: the first occurrence of
		// the minimum wins, matching the heap's (fireAt, id) order.
		// Unscheduled timers sit at +Inf and never win the comparison.
		best := math.Inf(1)
		id := -1
		for _, t := range e.comp.timed {
			if at := e.fireAt[t]; at < best {
				best, id = at, int(t)
			}
		}
		if id < 0 {
			// Every scheduled timer is at +Inf (a degenerate sampler):
			// surface the lowest-id scheduled one, as the heap would.
			for _, t := range e.comp.timed {
				if e.heapPos[t] >= 0 {
					return best, int(t)
				}
			}
		}
		return best, id
	}
	if len(e.heap) == 0 {
		return math.Inf(1), -1
	}
	n := e.heap[0]
	return n.at, int(n.id)
}

// nothingScheduled reports whether no timed transition is scheduled — the
// deadlock test, valid under either scheduler.
func (e *engine) nothingScheduled() bool {
	if e.linear {
		return e.nSched == 0
	}
	return len(e.heap) == 0
}

// fireTimed fires the scheduled timed transition, resolves the resulting
// vanishing markings and re-synchronizes the timers adjacent to the touched
// places. It is the per-event body of every execution mode (steady state,
// transient, batch means), so the cooperative cancellation poll lives here:
// every cancelCheckStride events the run's context is checked, and a
// cancelled context aborts the simulation mid-run with ctx.Err().
func (e *engine) fireTimed(t int32) error {
	if e.ctx != nil {
		if e.ctxCountdown--; e.ctxCountdown <= 0 {
			e.ctxCountdown = cancelCheckStride
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
	}
	e.curTimed = t
	e.unschedule(t)
	e.fireAt[t] = math.Inf(1)
	e.remain[t] = -1
	enabled := e.unsat[t] == 0
	if e.comp.special[t] {
		enabled = e.comp.enabled(e.marking, t)
	}
	if !enabled {
		return fmt.Errorf("petri: internal error: scheduled transition %q not enabled at fire time", e.net.Transitions[t].Name)
	}
	c := e.comp
	fused := int(c.fusedOff[t+1] - c.fusedOff[t])
	if (fused != 0 || c.conflictGroup[t] >= 0) && !e.chainOK(t) {
		// A runtime precondition failed (or injection broke the bounds):
		// fire the bare transition and let the resolver take over.
		e.applyProg(c.soloProg(t))
		if e.measuring {
			e.firings[t]++
		}
		if err := e.resolveImmediates(0); err != nil {
			return err
		}
	} else {
		if fused > e.opt.MaxVanishingChain {
			// The scalar engine would hit the livelock bound partway through
			// this chain; the fused program cannot stop midway, so refuse to
			// apply it at all — error presence matches the unfused semantics.
			return fmt.Errorf("petri: immediate-transition livelock after %d zero-time firings (marking %v)", e.opt.MaxVanishingChain, e.marking)
		}
		e.fireAndUpdate(t)
		if e.measuring {
			e.firings[t]++
			if fused != 0 {
				e.countFusedFirings(t)
			}
		}
		steps := fused
		if gi := c.conflictGroup[t]; gi >= 0 {
			// The chain's terminal is a proven fully-live priority level:
			// replay the resolver's weighted draw from the compile-time
			// tables — the total and the member order match its arithmetic
			// bit for bit — then fire the winner.
			if steps >= e.opt.MaxVanishingChain {
				return fmt.Errorf("petri: immediate-transition livelock after %d zero-time firings (marking %v)", steps, e.marking)
			}
			members := c.groups[gi].members
			weights := c.confWeights[c.confOff[gi]:c.confOff[gi+1]]
			u := e.rng.Float64() * c.confTotal[gi]
			chosen := members[len(members)-1]
			for k, id := range members {
				u -= weights[k]
				if u < 0 {
					chosen = id
					break
				}
			}
			var err error
			if steps, err = e.fireImm(chosen, steps); err != nil {
				return err
			}
		}
		if err := e.resolveImmediates(steps); err != nil {
			return err
		}
	}
	e.recordMarking()
	e.syncDirtyTimers(t)
	e.clearDirty()
	return nil
}

// recordMarking pushes the changed places' token counts into the
// accumulators at the current time. Untouched places cannot have changed,
// touched places that returned to their pre-event count are skipped by the
// preVal comparison, and TimeWeighted.Set defers integration across
// unchanged values — so restricting the sweep to the genuinely changed
// places yields bit-identical averages to a full rescan.
func (e *engine) recordMarking() {
	if !e.measuring {
		return
	}
	now := e.now
	marking := e.marking
	pstats := e.pstats
	for _, p := range e.dirty {
		st := &pstats[p]
		fv := float64(marking[p])
		// The accumulator holds the value since its last change — the
		// pre-event value — so this one comparison filters both places
		// whose count ended up unchanged and duplicate dirty entries.
		if fv == st.tokV {
			continue
		}
		st.tokInt += st.tokV * (now - st.tokT)
		st.tokT, st.tokV = now, fv
		b := boolTo01(fv > 0)
		if b != st.busyV {
			st.busyInt += st.busyV * (now - st.busyT)
			st.busyT, st.busyV = now, b
		}
	}
}

// resolveImmediates fires enabled immediate transitions (highest priority
// first, weighted random choice within a priority level) until the marking
// is tangible. The chain happens in zero simulated time. The enabled set
// is maintained incrementally (unsat counters, guardEnabled, and the
// groupLive/liveGroups tallies), so each step costs the priority-group
// scan plus the re-checks adjacent to the fired transition — and no
// allocation.
//
// steps counts the zero-time firings already charged to this vanishing
// chain: the immediates fused into the triggering firing's program. Each
// resolver firing then advances it by one plus its own fused-chain length,
// so the MaxVanishingChain livelock bound counts every individual immediate
// firing, fused or not, exactly like the unfused engine.
func (e *engine) resolveImmediates(steps int) error {
	maxSteps := e.opt.MaxVanishingChain
	for e.liveGroups > 0 {
		gi := 0
		for e.groupLive[gi] == 0 {
			gi++
		}
		if steps >= maxSteps {
			return fmt.Errorf("petri: immediate-transition livelock after %d zero-time firings (marking %v)", steps, e.marking)
		}
		group := &e.comp.groups[gi]
		var chosen int32
		if len(group.members) == 1 {
			// Singleton priority level: the live count says its only
			// member is enabled; no conflict, no draw.
			chosen = group.members[0]
		} else if int(e.groupLive[gi]) == len(group.members) {
			// Every member is live: skip the subset scan and draw from the
			// precomputed tables. The compile-time total was summed in
			// member order — the same order the scan would add live
			// weights — so the draw arithmetic is bit-identical.
			weights := e.comp.confWeights[e.comp.confOff[gi]:e.comp.confOff[gi+1]]
			u := e.rng.Float64() * e.comp.confTotal[gi]
			chosen = group.members[len(group.members)-1]
			for k, id := range group.members {
				u -= weights[k]
				if u < 0 {
					chosen = id
					break
				}
			}
		} else {
			ids := e.immScratch[:0]
			for _, t := range group.members {
				var en bool
				if e.comp.guarded[t] {
					en = e.guardEnabled[t]
				} else {
					en = e.unsat[t] == 0
				}
				if en {
					ids = append(ids, t)
				}
			}
			if len(ids) == 0 {
				panic("petri: internal error: live priority group has no enabled members")
			}
			chosen = ids[0]
			if len(ids) > 1 {
				total := 0.0
				for _, id := range ids {
					total += e.net.Transitions[id].Weight
				}
				u := e.rng.Float64() * total
				chosen = ids[len(ids)-1]
				for _, id := range ids {
					u -= e.net.Transitions[id].Weight
					if u < 0 {
						chosen = id
						break
					}
				}
			}
		}
		var err error
		if steps, err = e.fireImm(chosen, steps); err != nil {
			return err
		}
	}
	return nil
}

// countFusedFirings credits the measured-period firing counters of the
// immediate transitions fused into t's program. Callers handle t's own
// counter inline and only divert here when the chain is non-empty.
func (e *engine) countFusedFirings(t int32) {
	c := e.comp
	for _, f := range c.fusedChain[c.fusedOff[t]:c.fusedOff[t+1]] {
		e.firings[f]++
	}
}

// syncDirtyTimers reconciles the timed transitions whose schedule may need
// to change with the current marking, in ascending id order — the same
// order a full syncTimers scan would visit them, so delay samples are
// drawn from the RNG identically. The candidate set is: single-server
// transitions whose enabling flipped during the firing chain (collected by
// fireAndUpdate), the guarded/multi-server specials (re-derived every
// event, exactly like the scalar engine's full scan), and the fired
// transition itself (it must be rescheduled if still enabled, even when it
// has no arcs). A negative fired means the marking changed without a
// firing (Session.Inject): only flips and specials are reconciled.
//
// A single-server timed transition whose enabling never flipped kept both
// its enabling status and (trivially) its degree, and after every sync
// enabled ⇔ scheduled holds, so skipping it can neither miss a state
// change nor a resample.
func (e *engine) syncDirtyTimers(fired int32) {
	cand := append(e.candTimed, e.comp.specialTimed...)
	if fired >= 0 {
		cand = append(cand, fired)
	}
	// Insertion sort: the candidate set is tiny (flips, specials, fired).
	// Duplicates are harmless — the first syncOne reconciles the
	// transition and a repeat visit hits a no-op case.
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	for _, t := range cand {
		e.syncOne(t)
	}
	e.candTimed = cand[:0]
}

// syncOne applies the memory-policy schedule reconciliation to one timed
// transition — the per-transition body of the scalar engine's syncTimers.
// Multi-server exponential transitions resample whenever their enabling
// degree changes, which is statistically exact by memorylessness.
func (e *engine) syncOne(t int32) {
	deg := 1
	var enabled, multi bool
	if !e.comp.special[t] {
		enabled = e.unsat[t] == 0
	} else if multi = e.comp.multi[t]; multi {
		deg = e.comp.enablingDegree(e.marking, t)
		enabled = deg > 0
	} else {
		enabled = e.comp.enabled(e.marking, t)
	}
	scheduled := e.heapPos[t] >= 0
	switch {
	case enabled && !scheduled:
		e.fireAt[t] = e.now + e.sampleDelay(t, deg)
		e.degree[t] = deg
		e.schedule(t)
	case enabled && scheduled && multi && deg != e.degree[t]:
		e.fireAt[t] = e.now + e.sampleDelay(t, deg)
		e.degree[t] = deg
		e.reschedule(t)
	case !enabled && scheduled:
		if e.raceAge && !multi {
			e.remain[t] = e.fireAt[t] - e.now
		}
		e.fireAt[t] = math.Inf(1)
		e.unschedule(t)
	}
}

// sampleDelay draws the firing delay of transition t at the given enabling
// degree, honoring race-age resumption for single-server transitions. The
// compiled sampler kinds cover every shipped distribution; each evaluates
// the exact expression (and draws the exact xrand sequence) the
// distribution's Sample method would, so devirtualizing the dispatch cannot
// change a trajectory. Only distributions outside the shipped set — or with
// constructor-bypassing parameters — pay the interface call, which also
// guards against invalid samples.
func (e *engine) sampleDelay(t int32, deg int) float64 {
	c := e.comp
	if e.raceAge && e.remain[t] >= 0 && !c.multi[t] {
		d := e.remain[t]
		e.remain[t] = -1
		return d
	}
	var delay float64
	switch c.delayKind[t] {
	case delayKindExp:
		delay = e.rng.ExpFloat64() / c.delayParam[t]
	case delayKindDet:
		delay = c.delayParam[t]
	case delayKindUniform:
		delay = c.delayParam[t] + c.delayParam2[t]*e.rng.Float64()
	case delayKindErlang:
		if c.delayParam2[t] == 1 {
			// Mirrors dist.Erlang.Sample's single-phase shortcut exactly.
			delay = e.rng.ExpFloat64() / c.delayParam[t]
			break
		}
		prod := 1.0
		for i := 0; i < int(c.delayParam2[t]); i++ {
			prod *= e.rng.Float64Open()
		}
		delay = -math.Log(prod) / c.delayParam[t]
	case delayKindWeibull:
		delay = c.delayParam[t] * math.Pow(e.rng.ExpFloat64(), c.delayParam2[t])
	case delayKindHyperExp:
		// A direct call on the concrete mixture value — static dispatch,
		// no interface, and by construction the same draw sequence.
		delay = c.hypers[int(c.delayParam[t])].Sample(&e.rng)
	default:
		tr := &e.net.Transitions[t]
		delay = tr.Delay.Sample(&e.rng)
		if delay < 0 || math.IsNaN(delay) {
			panic(fmt.Sprintf("petri: transition %q sampled invalid delay %v", tr.Name, delay))
		}
	}
	if deg > 1 {
		// Exponential with rate scaled by the degree: dividing a rate-r
		// sample by deg yields a rate-(r*deg) sample.
		delay /= float64(deg)
	}
	return delay
}

// ---------------------------------------------------------------------------
// Scheduled-transition 4-ary min-heap
//
// A 4-ary layout halves the tree height of a binary heap, trading a wider
// per-level child scan (up to four sequential timerNode compares, one cache
// line) for fewer levels. Only the (fireAt, id) pop order is observable,
// and the id tie-break makes the minimum unique, so neither the arity nor
// the hole-based sifting can change simulation results.

// heapNodeLess orders heap nodes by (fireAt, id).
func heapNodeLess(a, b timerNode) bool {
	return a.at < b.at || (a.at == b.at && a.id < b.id)
}

// siftUp moves the node at i toward the root until its parent is no larger,
// shifting displaced parents down into the hole; it reports whether the
// node moved (so fix-ups know to try sifting down instead).
func (e *engine) siftUp(i int) bool {
	h := e.heap
	n := h[i]
	moved := false
	for i > 0 {
		parent := (i - 1) >> 2
		if !heapNodeLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		e.heapPos[h[i].id] = int32(i)
		i = parent
		moved = true
	}
	if moved {
		h[i] = n
		e.heapPos[n.id] = int32(i)
	}
	return moved
}

func (e *engine) siftDown(i int) {
	h := e.heap
	size := len(h)
	n := h[i]
	for {
		first := 4*i + 1
		if first >= size {
			break
		}
		end := first + 4
		if end > size {
			end = size
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if heapNodeLess(h[c], h[smallest]) {
				smallest = c
			}
		}
		if !heapNodeLess(h[smallest], n) {
			break
		}
		h[i] = h[smallest]
		e.heapPos[h[i].id] = int32(i)
		i = smallest
	}
	h[i] = n
	e.heapPos[n.id] = int32(i)
}

// schedule inserts unscheduled transition t into the scheduler at its
// current fireAt. In linear mode the fireAt array is the schedule; only the
// scheduled flag and count need maintaining.
func (e *engine) schedule(t int32) {
	if e.linear {
		e.heapPos[t] = 0
		e.nSched++
		return
	}
	i := len(e.heap)
	e.heap = append(e.heap, timerNode{at: e.fireAt[t], id: t})
	e.heapPos[t] = int32(i)
	e.siftUp(i)
}

// reschedule restores scheduler order after t's fireAt changed.
func (e *engine) reschedule(t int32) {
	if e.linear {
		return
	}
	i := int(e.heapPos[t])
	e.heap[i].at = e.fireAt[t]
	if !e.siftUp(i) {
		e.siftDown(i)
	}
}

// unschedule removes t from the scheduler if present.
func (e *engine) unschedule(t int32) {
	i := int(e.heapPos[t])
	if i < 0 {
		return
	}
	e.heapPos[t] = -1
	if e.linear {
		e.nSched--
		return
	}
	last := len(e.heap) - 1
	if i != last {
		moved := e.heap[last]
		e.heap[i] = moved
		e.heapPos[moved.id] = int32(i)
		e.heap = e.heap[:last]
		if !e.siftUp(i) {
			e.siftDown(i)
		}
	} else {
		e.heap = e.heap[:last]
	}
}

// ---------------------------------------------------------------------------
// Replications

// ReplicatedResult aggregates independent replications of a simulation.
type ReplicatedResult struct {
	Replications int
	// PlaceAvg[i] summarizes the per-replication time-averaged token
	// count of place i.
	PlaceAvg []stats.Summary
	// PlaceNonEmpty[i] summarizes the per-replication fraction of time
	// place i was non-empty.
	PlaceNonEmpty []stats.Summary
	// Throughput[i] summarizes per-replication firings per unit time.
	Throughput []stats.Summary
	// Deadlocks counts replications that deadlocked.
	Deadlocks int
}

// MeanTokens returns the across-replication mean token count of the named
// place with its 95% confidence half-width.
func (r *ReplicatedResult) MeanTokens(n *Net, name string) (mean, ci float64) {
	id, ok := n.PlaceByName(name)
	if !ok {
		panic(fmt.Sprintf("petri: no place named %q", name))
	}
	return r.PlaceAvg[id].Mean(), r.PlaceAvg[id].CI(0.95)
}

// SimulateReplications runs reps independent replications, deriving each
// replication's random stream from (opt.Seed, replication index). The net
// is compiled once and shared by all replications; see
// Compiled.SimulateReplications.
func SimulateReplications(n *Net, opt SimOptions, reps int) (*ReplicatedResult, error) {
	return SimulateReplicationsContext(context.Background(), n, opt, reps)
}

// SimulateReplicationsContext is SimulateReplications with cooperative
// cancellation: a cancelled context aborts the running replication
// mid-simulation (not just between replications) and the call returns an
// error wrapping ctx.Err().
func SimulateReplicationsContext(ctx context.Context, n *Net, opt SimOptions, reps int) (*ReplicatedResult, error) {
	if reps < 1 {
		return nil, fmt.Errorf("petri: replications must be >= 1, got %d", reps)
	}
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.SimulateReplicationsContext(ctx, opt, reps)
}

// SimulateReplications runs reps independent replications of the compiled
// net, one after another on the calling goroutine, and folds each into the
// aggregate as it finishes. Each replication's seed depends only on its
// index, so the aggregate is a pure function of (opt, reps). Parallelism
// belongs to the caller: a core.Runner runs whole (scenario, estimator)
// pairs concurrently, each on its own goroutine. The replications draw
// their engine from the compiled net's pool, so a replication sweep reuses
// one engine regardless of reps.
func (c *Compiled) SimulateReplications(opt SimOptions, reps int) (*ReplicatedResult, error) {
	return c.SimulateReplicationsContext(context.Background(), opt, reps)
}

// SimulateReplicationsContext is Compiled.SimulateReplications with
// cooperative cancellation; see the package-level variant.
func (c *Compiled) SimulateReplicationsContext(ctx context.Context, opt SimOptions, reps int) (*ReplicatedResult, error) {
	if reps < 1 {
		return nil, fmt.Errorf("petri: replications must be >= 1, got %d", reps)
	}
	n := c.net
	out := &ReplicatedResult{
		Replications:  reps,
		PlaceAvg:      make([]stats.Summary, len(n.Places)),
		PlaceNonEmpty: make([]stats.Summary, len(n.Places)),
		Throughput:    make([]stats.Summary, len(n.Transitions)),
	}
	for rep := 0; rep < reps; rep++ {
		o := opt
		o.Seed = opt.Seed + uint64(rep)*0x9e3779b97f4a7c15
		res, err := c.SimulateContext(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("petri: replication %d: %w", rep, err)
		}
		for i := range n.Places {
			out.PlaceAvg[i].Add(res.PlaceAvg[i])
			out.PlaceNonEmpty[i].Add(res.PlaceNonEmpty[i])
		}
		for i := range n.Transitions {
			out.Throughput[i].Add(res.Throughput[i])
		}
		if res.Deadlocked {
			out.Deadlocks++
		}
	}
	return out, nil
}
