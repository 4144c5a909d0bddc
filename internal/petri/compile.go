package petri

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/dist"
)

// Firing-delay specializations (see Compiled.delayKind). Every shipped
// distribution has a compiled sampler kind, so the hot loop never goes
// through dist.Distribution interface dispatch; each compiled sampler draws
// the exact xrand sequence and evaluates the exact arithmetic of the
// distribution's Sample method, keeping trajectories bit-identical.
// delayKindGeneric is the fallback for user-supplied distributions (and for
// shipped ones whose parameters bypass their constructor validation, so the
// generic path's invalid-sample panic still fires).
const (
	delayKindGeneric = uint8(iota)
	delayKindExp
	delayKindDet
	delayKindUniform
	delayKindErlang
	delayKindWeibull
	delayKindHyperExp
)

// maxFusedChain bounds how many immediate firings Compile folds into one
// firing program. Chains longer than the cap (only possible when the fused
// transition re-guarantees its own enabling — a structural livelock) fall
// back to the general resolver for the remainder.
const maxFusedChain = 16

// maxChainPreconds bounds the runtime preconditions a fused chain may
// carry. Every precondition is one load-and-compare on the pre-firing
// marking, paid on every firing of the parent, so a chain that needs more
// facts than this is unlikely to pay for itself.
const maxChainPreconds = 6

// carc is a compiled arc: a place index and multiplicity, flattened into the
// Compiled net's contiguous arc arrays for cache-friendly scanning.
type carc struct {
	place  int32
	weight int32
}

// cond is one compiled enabling condition, packed into a single word so
// the hot loop does one load per condition: when the owning place's token
// count crosses the threshold, transition t gains or loses one unsatisfied
// condition. A transition with zero unsatisfied conditions is enabled.
//
// Layout: bits 0–30 transition id, bit 31 timed flag, bits 32–62
// threshold, bit 63 form (0: unsatisfied while count < threshold — input
// arcs; 1: unsatisfied while count >= threshold — inhibitor arcs and
// capacity bounds). Since "count >= K" is the negation of "count < K", a
// condition's satisfaction flips exactly when (count < K) changes,
// independent of the form bit.
type cond uint64

const condTimedBit = cond(1) << 31

func makeCond(t int32, thresh int, geq, timed bool) cond {
	if thresh < 0 {
		// Only capacity bounds can go negative (output weight exceeding
		// the capacity); token counts are non-negative, so "count >= 0"
		// (always unsatisfied) is equivalent.
		thresh = 0
	}
	c := cond(uint32(t))
	if timed {
		c |= condTimedBit
	}
	c |= cond(uint64(uint32(thresh)&0x7fffffff) << 32)
	if geq {
		c |= cond(1) << 63
	}
	return c
}

func (c cond) transition() int32 { return int32(c & 0x7fffffff) }
func (c cond) timed() bool       { return c&condTimedBit != 0 }
func (c cond) thresh() int       { return int(uint32(c>>32) & 0x7fffffff) }
func (c cond) geq() bool         { return c>>63 != 0 }

// unsatisfied evaluates the condition against a token count.
func (c cond) unsatisfied(v int) bool { return (v < c.thresh()) != c.geq() }

// precond is one runtime precondition of a fused vanishing chain, checked
// against the pre-firing marking before the chain's combined program is
// applied. Packed like cond so the check is one load per entry: bits 0–30
// place id, bits 32–62 threshold, bit 63 form (0: requires count >=
// threshold, 1: requires count < threshold).
type precond uint64

func makePrecond(p int32, thresh int, lt bool) precond {
	pc := precond(uint32(p))
	pc |= precond(uint64(uint32(thresh)&0x7fffffff) << 32)
	if lt {
		pc |= precond(1) << 63
	}
	return pc
}

func (pc precond) place() int32 { return int32(pc & 0x7fffffff) }
func (pc precond) thresh() int  { return int(uint32(pc>>32) & 0x7fffffff) }
func (pc precond) lt() bool     { return pc>>63 != 0 }

// holds evaluates the precondition against a token count.
func (pc precond) holds(v int) bool { return (v < pc.thresh()) == pc.lt() }

// immGroup is one immediate-priority level of a compiled net.
type immGroup struct {
	priority int
	// members lists the level's immediate transitions in ascending id
	// order, matching the scan order of Net.EnabledImmediatesAtTopPriority
	// so conflict resolution draws random numbers identically.
	members []int32
}

// Compiled is the immutable, dependency-compiled form of a Net, built once
// by Compile and shared by every simulation run (and every goroutine that
// simulates it — nothing in it is mutated after construction).
//
// It precomputes what the discrete-event engine needs per event:
//
//   - flattened input/output/inhibitor arc arrays per transition;
//   - per-transition net token deltas (self-loops cancel out), so firing
//     touches only the places whose count actually changes;
//   - per-place threshold conditions (conds): the compiled form of "which
//     transitions' enabling can change when this place's count crosses
//     which value", letting the engine maintain per-transition
//     unsatisfied-condition counters with a handful of integer compares
//     per event instead of rescanning arcs;
//   - the immediate transitions grouped by priority, highest first;
//   - the short lists of transitions that escape the counter scheme
//     (guards read arbitrary marking state, multi-server transitions need
//     their enabling degree re-derived) and are re-checked conventionally.
//
// With these, the per-event work is proportional to what the event
// changes, never to the size of the net.
type Compiled struct {
	net *Net

	// Flattened arc arrays: transition t's input arcs occupy
	// in[inOff[t]:inOff[t+1]], and likewise for outputs and inhibitors.
	in, out, inh          []carc
	inOff, outOff, inhOff []int32

	// deltas[deltaOff[t]:deltaOff[t+1]] is transition t's net marking
	// change: output minus input multiplicity per place, places with zero
	// net effect omitted, ascending by place id.
	deltas   []carc
	deltaOff []int32

	// conds[condOff[p]:condOff[p+1]] are the threshold conditions owned by
	// place p, covering the input, inhibitor and capacity conditions of
	// every unguarded transition (multi-server transitions excluded — see
	// specialTimed).
	conds   []cond
	condOff []int32

	// progs[progOff[t]:progOff[t+1]] is transition t's firing program: the
	// per-transition fusion of deltas and conds into one flat word stream
	// the engine executes per firing with zero indirection. Each record is
	// a header word — place (bits 0–30), condition count (32–47), signed
	// token delta (48–63) — followed by that place's condition words.
	//
	// When a vanishing chain is statically guaranteed to follow t's firing
	// (see buildFusedChains), the program holds the combined net delta of t
	// plus the whole chain, so the intermediate vanishing markings are never
	// materialized.
	progs   []uint64
	progOff []int32

	// fusedChain[fusedOff[t]:fusedOff[t+1]] lists the immediate transitions
	// whose firings are fused into t's program, in firing order. The engine
	// still counts their firings and vanishing-chain steps individually, so
	// throughput and livelock accounting match the unfused semantics.
	fusedChain []int32
	fusedOff   []int32

	// preconds[precondOff[t]:precondOff[t+1]] are the runtime preconditions
	// on the pre-firing marking under which t's fused chain (and terminal
	// conflict step, if any) replays the resolver exactly. When any fails,
	// the engine fires t's solo program and hands over to the resolver.
	preconds   []precond
	precondOff []int32
	// boundsDep[t] reports that t's chain proof leaned on capacity or
	// P-invariant upper bounds of the unperturbed net — facts an external
	// Session.Inject can break, so the chain is disabled after one.
	boundsDep []bool

	// conflictGroup[t] is the immediate-priority level fused as the
	// terminal step of timed transition t's firing: after t's chain the
	// level is proven fully live, so the resolver's weighted draw is
	// replayed inline from the conflict tables. -1 when absent.
	conflictGroup []int32
	// confWeights[confOff[g]:confOff[g+1]] are priority level g's member
	// weights in member order, and confTotal[g] their sum — accumulated at
	// compile time in the same order the resolver adds them, so the
	// all-members-live draw is bit-identical to the scan it replaces.
	confWeights []float64
	confOff     []int32
	confTotal   []float64

	// soloProgs[soloOff[t]:soloOff[t+1]] is the parent-only firing program
	// of a transition whose progs entry absorbed a fused chain; empty for
	// unfused transitions (their progs entry already is the solo program).
	soloProgs []uint64
	soloOff   []int32

	// hasCapOut[t] reports that transition t has a capacity-bounded output
	// place, so its enabling depends on output places too.
	hasCapOut []bool
	// negPlace[p] reports that some transition can drive place p negative:
	// it holds several input arcs on p, and enabling only requires the
	// largest of them while firing consumes their sum. Token counts on such
	// places have no non-negativity floor, which invalidates the static
	// enabling guarantee behind vanishing-chain fusion (see fusionTarget).
	negPlace []bool
	// multi[t] reports multi-server firing semantics (Servers not in {0,1}).
	multi []bool
	// guarded[t] reports an attached guard predicate.
	guarded []bool
	// special[t] = multi[t] || guarded[t]: the transition is outside the
	// unsatisfied-condition counter scheme and needs a full re-check.
	special []bool
	// complexEnab[t] reports that enabling t requires more than the input
	// arc check: inhibitors, a capacity-bounded output or a guard.
	complexEnab []bool

	// timed lists the timed transitions in ascending id order.
	timed []int32
	// delayKind/delayParam/delayParam2 devirtualize the firing-delay
	// sampling: the engine switches on the kind and evaluates the exact
	// expression the distribution's Sample method would, drawing the same
	// xrand stream. Parameter packing per kind: Exp (rate, -), Det (value,
	// -), Uniform (low, high-low), Erlang (rate, K), Weibull (scale,
	// 1/shape), HyperExp (index into hypers, -). Distributions outside the
	// shipped set stay on the dist.Distribution interface (delayKindGeneric).
	delayKind   []uint8
	delayParam  []float64
	delayParam2 []float64
	// hypers holds the hyper-exponential mixtures referenced by delayParam.
	hypers []dist.HyperExponential
	// groups are the immediate-priority levels, highest priority first.
	groups []immGroup
	// groupOf[t] is the index into groups for an immediate transition and
	// -1 for a timed one.
	groupOf []int32

	// guardedImms lists the guarded immediate transitions (ascending):
	// their enabling is re-evaluated with a full check after every firing
	// that changed the marking, since a guard may read any place.
	guardedImms []int32
	// specialTimed lists the timed transitions outside the counter scheme
	// (guarded, or multi-server — whose enabling degree must be re-derived
	// every event, exactly as the scalar engine did), ascending.
	specialTimed []int32

	// timedDeps[p] and immDeps[p] list, in ascending id order, the timed
	// and immediate transitions whose enabling can be affected by a change
	// to place p — the human-readable inverse index behind conds, retained
	// for analysis and tests.
	timedDeps [][]int32
	immDeps   [][]int32

	// enginePool recycles run-ready engines (the per-run scratch state:
	// marking, timers, heap, counters, accumulators) across simulations of
	// this net, so a replication sweep reuses one engine instead of
	// allocating a fresh scratch set per replication. Engines are sized to
	// this net and never migrate between compiled nets. See
	// acquireEngine/releaseEngine in sim.go.
	enginePool sync.Pool
}

// Compile validates the net and builds its compiled form. The net must not
// be structurally modified (places, transitions, arcs, guards) after
// compilation; marking state is never stored in the net, so simulating a
// compiled net concurrently from many goroutines is safe as long as guards
// are pure functions of the marking.
func Compile(n *Net) (*Compiled, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	nT := len(n.Transitions)
	nP := len(n.Places)
	c := &Compiled{
		net:         n,
		inOff:       make([]int32, nT+1),
		outOff:      make([]int32, nT+1),
		inhOff:      make([]int32, nT+1),
		deltaOff:    make([]int32, nT+1),
		hasCapOut:   make([]bool, nT),
		negPlace:    make([]bool, nP),
		multi:       make([]bool, nT),
		guarded:     make([]bool, nT),
		special:     make([]bool, nT),
		complexEnab: make([]bool, nT),
		groupOf:     make([]int32, nT),
		delayKind:   make([]uint8, nT),
		delayParam:  make([]float64, nT),
		delayParam2: make([]float64, nT),
		timedDeps:   make([][]int32, nP),
		immDeps:     make([][]int32, nP),
	}

	for i := range n.Transitions {
		tr := &n.Transitions[i]
		for _, a := range tr.Inputs {
			c.in = append(c.in, carc{int32(a.Place), int32(a.Weight)})
		}
		for _, a := range tr.Outputs {
			c.out = append(c.out, carc{int32(a.Place), int32(a.Weight)})
			if n.Places[a.Place].Capacity > 0 {
				c.hasCapOut[i] = true
			}
		}
		for _, a := range tr.Inhibitors {
			c.inh = append(c.inh, carc{int32(a.Place), int32(a.Weight)})
		}
		c.inOff[i+1] = int32(len(c.in))
		c.outOff[i+1] = int32(len(c.out))
		c.inhOff[i+1] = int32(len(c.inh))
		c.multi[i] = tr.Servers != 0 && tr.Servers != 1
		c.guarded[i] = tr.Guard != nil
		c.special[i] = c.multi[i] || c.guarded[i]
		c.complexEnab[i] = c.hasCapOut[i] || c.guarded[i] || len(tr.Inhibitors) > 0
		c.groupOf[i] = -1
		if tr.Kind == Timed {
			c.timed = append(c.timed, int32(i))
			if c.multi[i] || c.guarded[i] {
				c.specialTimed = append(c.specialTimed, int32(i))
			}
			c.compileSampler(i, tr.Delay)
		} else if c.guarded[i] {
			c.guardedImms = append(c.guardedImms, int32(i))
		}

		// Duplicate input arcs on one place consume their sum while
		// enabling only checks each arc alone, so firing can take the
		// place negative; record that (see negPlace).
		maxIn := map[int32]int32{}
		sumIn := map[int32]int32{}
		for _, a := range tr.Inputs {
			p, w := int32(a.Place), int32(a.Weight)
			if w > maxIn[p] {
				maxIn[p] = w
			}
			sumIn[p] += w
		}
		for p, sum := range sumIn {
			if sum > maxIn[p] {
				c.negPlace[p] = true
			}
		}

		// Net marking deltas, ascending by place.
		net := map[int32]int32{}
		for _, a := range tr.Inputs {
			net[int32(a.Place)] -= int32(a.Weight)
		}
		for _, a := range tr.Outputs {
			net[int32(a.Place)] += int32(a.Weight)
		}
		var places []int32
		for p, d := range net {
			if d != 0 {
				places = append(places, p)
			}
		}
		slices.Sort(places)
		for _, p := range places {
			c.deltas = append(c.deltas, carc{p, net[p]})
		}
		c.deltaOff[i+1] = int32(len(c.deltas))
	}

	// Immediate-priority groups, highest priority first, members ascending.
	byPriority := make(map[int][]int32)
	var priorities []int
	for i := range n.Transitions {
		if n.Transitions[i].Kind != Immediate {
			continue
		}
		p := n.Transitions[i].Priority
		if _, seen := byPriority[p]; !seen {
			priorities = append(priorities, p)
		}
		byPriority[p] = append(byPriority[p], int32(i))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(priorities)))
	for _, p := range priorities {
		c.groups = append(c.groups, immGroup{priority: p, members: byPriority[p]})
	}
	for gi, g := range c.groups {
		for _, t := range g.members {
			c.groupOf[t] = int32(gi)
		}
	}

	c.buildConditions(nP)
	c.buildDeps(nP)
	c.buildConflictTables()
	c.buildFusedChains(nT, nP)
	if err := c.buildPrograms(nT); err != nil {
		return nil, err
	}
	return c, nil
}

// compileSampler records the devirtualized sampler kind and parameters of a
// timed transition's delay distribution. Parameters that would bypass the
// shipped constructors' validation (and so could sample negative or NaN
// delays) keep the generic interface path, whose runtime check still fires.
func (c *Compiled) compileSampler(i int, delay dist.Distribution) {
	switch d := delay.(type) {
	case dist.Exponential:
		if !(d.Rate > 0) {
			return
		}
		c.delayKind[i], c.delayParam[i] = delayKindExp, d.Rate
	case dist.Deterministic:
		if !(d.Value >= 0) {
			return
		}
		c.delayKind[i], c.delayParam[i] = delayKindDet, d.Value
	case dist.Uniform:
		if !(d.Low >= 0 && d.High > d.Low) || math.IsInf(d.High, 1) {
			// An infinite High sneaks past NewUniform; its span times a
			// zero draw is NaN, which only the generic path's check
			// catches.
			return
		}
		// Sample is Low + (High-Low)*U; the span is a deterministic float
		// subtraction, so precomputing it preserves bit-exactness.
		c.delayKind[i] = delayKindUniform
		c.delayParam[i], c.delayParam2[i] = d.Low, d.High-d.Low
	case dist.Erlang:
		if d.K < 1 || !(d.Rate > 0) {
			return
		}
		c.delayKind[i] = delayKindErlang
		c.delayParam[i], c.delayParam2[i] = d.Rate, float64(d.K)
	case dist.Weibull:
		if !(d.Shape > 0 && d.Scale > 0) {
			return
		}
		c.delayKind[i] = delayKindWeibull
		c.delayParam[i], c.delayParam2[i] = d.Scale, 1/d.Shape
	case dist.HyperExponential:
		if len(d.Probs) == 0 || len(d.Probs) != len(d.Rates) {
			return
		}
		sum := 0.0
		for j, p := range d.Probs {
			if !(p >= 0) || !(d.Rates[j] > 0) {
				return
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return
		}
		c.delayKind[i] = delayKindHyperExp
		c.delayParam[i] = float64(len(c.hypers))
		c.hypers = append(c.hypers, d)
	}
}

// buildConflictTables precomputes, per immediate-priority level, the member
// weights in member order and their sum. The resolver's weighted draw adds
// live members' weights in member order, so when a whole level is live the
// compile-time total and the sequential subtraction against these tables
// reproduce its floating-point arithmetic bit for bit.
func (c *Compiled) buildConflictTables() {
	c.confOff = make([]int32, len(c.groups)+1)
	for gi, g := range c.groups {
		total := 0.0
		for _, id := range g.members {
			w := c.net.Transitions[id].Weight
			c.confWeights = append(c.confWeights, w)
			total += w
		}
		c.confTotal = append(c.confTotal, total)
		c.confOff[gi+1] = int32(len(c.confWeights))
	}
}

// ---------------------------------------------------------------------------
// Vanishing-chain fusion
//
// buildFusedChains statically replays, per transition t, the resolver's
// run after t fires: which immediate fires next, or which fully-live
// priority level it would draw from. The replay rests on facts about the
// pre-firing marking m_pre:
//
//   - token counts are non-negative, except on places a duplicate-input-arc
//     transition can drive negative (negPlace);
//   - t was enabled at m_pre (the engine checks this at fire time), so
//     every input arc, inhibitor and capacity bound of t itself holds;
//   - for timed t, m_pre was tangible, so every immediate was disabled;
//   - place capacities and P-invariants bound every reachable count
//     (broken by Session.Inject, hence boundsDep);
//   - runtime preconditions: facts the compiler could not prove are
//     emitted as compiled threshold checks on m_pre, and the chain applies
//     only when all of them hold (engine.chainOK).
//
// The current marking after k fused firings is m_pre plus the accumulated
// net delta, so interval facts on m_pre translate to enabling proofs and
// disabling proofs along the chain. Where a member is neither provably
// enabled nor provably disabled, the builder prefers forcing it disabled
// (descending to lower levels — vanishing chains overwhelmingly drain
// downward) and falls back to forcing it enabled when the descent proves
// nothing fires below. Every fused firing the proof yields is exactly the
// firing the resolver would pick with no RNG draw; a terminal step may
// instead be a proven fully-live level, whose weighted draw the engine
// replays from the conflict tables. Either way, fusing is bit-exact.

// factNegInf/factPosInf are the interval-analysis sentinels, kept far from
// the int64 limits so bound arithmetic cannot overflow.
const (
	factNegInf = int64(math.MinInt64 / 4)
	factPosInf = int64(math.MaxInt64 / 4)
)

// chainBuilder carries the static interval facts about the pre-firing
// marking m_pre during the chain analysis of one parent transition.
type chainBuilder struct {
	c *Compiled
	// invUB[p] is the tightest capacity/P-invariant upper bound on p over
	// all reachable markings of the unperturbed net (factPosInf if none).
	invUB []int64

	// Per-parent facts: lb[p] <= m_pre[p] <= min(ubSafe[p], ubBound[p]).
	// ubSafe holds injection-proof knowledge (the parent's own enabling,
	// committed preconditions); ubBound the capacity/invariant bounds,
	// whose use flags the chain boundsDep. lbForced[p] records that lb[p]
	// was raised by a committed >=-precondition — a second, higher demand
	// on the same place means the chain is consuming it faster than one
	// marking can plausibly supply, so extension stops there rather than
	// shadow a shorter chain with rarely-true preconditions.
	lb       []int64
	lbForced []bool
	ubSafe   []int64
	ubBound  []int64
	// acc[p] is the accumulated net token delta of the parent plus the
	// fused firings so far: the current count is m_pre[p] + acc[p].
	acc []int64

	timedParent bool
	preconds    []precond
	usedBounds  bool
	undo        []factUndo
}

// factUndo restores one place's facts when a speculative descent is
// abandoned.
type factUndo struct {
	p        int32
	lb, ub   int64
	lbForced bool
}

// builderMark snapshots the builder for backtracking.
type builderMark struct {
	npre, nundo int
	bounds      bool
}

func (b *chainBuilder) mark() builderMark {
	return builderMark{npre: len(b.preconds), nundo: len(b.undo), bounds: b.usedBounds}
}

func (b *chainBuilder) restore(m builderMark) {
	for i := len(b.undo) - 1; i >= m.nundo; i-- {
		u := b.undo[i]
		b.lb[u.p], b.ubSafe[u.p], b.lbForced[u.p] = u.lb, u.ub, u.lbForced
	}
	b.undo = b.undo[:m.nundo]
	b.preconds = b.preconds[:m.npre]
	b.usedBounds = m.bounds
}

func newChainBuilder(c *Compiled, nP int) *chainBuilder {
	b := &chainBuilder{
		c:        c,
		invUB:    make([]int64, nP),
		lb:       make([]int64, nP),
		lbForced: make([]bool, nP),
		ubSafe:   make([]int64, nP),
		ubBound:  make([]int64, nP),
		acc:      make([]int64, nP),
	}
	b.computeInvariantBounds(nP)
	return b
}

// computeInvariantBounds derives per-place upper bounds valid in every
// reachable marking of the unperturbed net: place capacities, and
// floor(y·M0 / y[p]) for each P-semiflow y — since y·M is conserved and
// the other support terms are non-negative. A semiflow whose support
// touches a negative-capable place loses that last step and is skipped, as
// is the whole invariant analysis when Farkas aborts on a blowup.
func (b *chainBuilder) computeInvariantBounds(nP int) {
	for p := 0; p < nP; p++ {
		b.invUB[p] = factPosInf
		if cp := b.c.net.Places[p].Capacity; cp > 0 {
			b.invUB[p] = int64(cp)
		}
	}
	invs, err := PInvariants(b.c.net)
	if err != nil {
		return
	}
	for _, y := range invs {
		valid := true
		v := int64(0)
		for q, yq := range y {
			if yq < 0 || (yq > 0 && b.c.negPlace[q]) {
				valid = false
				break
			}
			v += int64(yq) * int64(b.c.net.Places[q].Initial)
		}
		if !valid {
			continue
		}
		for p, yp := range y {
			if yp > 0 {
				if ub := v / int64(yp); ub < b.invUB[p] {
					b.invUB[p] = ub
				}
			}
		}
	}
}

// reset initializes the facts for one parent transition t: the generic
// floors and ceilings, t's own enabling facts (the engine verifies them at
// fire time, so they survive injection), and t's firing folded into the
// accumulator.
func (b *chainBuilder) reset(t int32) {
	c := b.c
	for p := range b.lb {
		if c.negPlace[p] {
			b.lb[p] = factNegInf
		} else {
			b.lb[p] = 0
		}
		b.lbForced[p] = false
		b.ubSafe[p] = factPosInf
		b.ubBound[p] = b.invUB[p]
		b.acc[p] = 0
	}
	for _, a := range c.in[c.inOff[t]:c.inOff[t+1]] {
		if int64(a.weight) > b.lb[a.place] {
			b.lb[a.place] = int64(a.weight)
		}
	}
	for _, a := range c.inh[c.inhOff[t]:c.inhOff[t+1]] {
		if ub := int64(a.weight) - 1; ub < b.ubSafe[a.place] {
			b.ubSafe[a.place] = ub
		}
	}
	if c.hasCapOut[t] {
		for _, a := range c.out[c.outOff[t]:c.outOff[t+1]] {
			if cp := c.net.Places[a.place].Capacity; cp > 0 {
				if ub := int64(cp) + b.consumed(t, a.place) - int64(a.weight); ub < b.ubSafe[a.place] {
					b.ubSafe[a.place] = ub
				}
			}
		}
	}
	for _, d := range c.deltas[c.deltaOff[t]:c.deltaOff[t+1]] {
		b.acc[d.place] = int64(d.weight)
	}
	b.timedParent = c.net.Transitions[t].Kind == Timed
	b.preconds = b.preconds[:0]
	b.undo = b.undo[:0]
	b.usedBounds = false
}

// consumed sums t's input-arc weights on place p (the capacity check nets
// a firing's own consumption against its production).
func (b *chainBuilder) consumed(t, p int32) int64 {
	s := int64(0)
	for _, a := range b.c.in[b.c.inOff[t]:b.c.inOff[t+1]] {
		if a.place == p {
			s += int64(a.weight)
		}
	}
	return s
}

// commitPrecond records a runtime precondition and folds it into the m_pre
// facts so later steps can build on it. Preconditions already implied by
// the facts are dropped; ones the facts contradict — or past the budget —
// fail the commit (the caller abandons that option).
func (b *chainBuilder) commitPrecond(pc precond) bool {
	p := pc.place()
	th := int64(pc.thresh())
	if pc.lt() {
		if b.ubSafe[p] <= th-1 {
			return true
		}
		if b.lb[p] >= th {
			return false // never satisfiable alongside the other facts
		}
	} else {
		if b.lb[p] >= th {
			return true
		}
		if th > b.ubSafe[p] || th > b.ubBound[p] {
			return false
		}
	}
	if len(b.preconds) >= maxChainPreconds {
		return false
	}
	b.undo = append(b.undo, factUndo{p: p, lb: b.lb[p], ub: b.ubSafe[p], lbForced: b.lbForced[p]})
	b.preconds = append(b.preconds, pc)
	if pc.lt() {
		b.ubSafe[p] = th - 1
	} else {
		b.lb[p] = th
		b.lbForced[p] = true
	}
	return true
}

// Member classification at the current accumulated marking.
const (
	clUNK = iota
	clEN
	clDIS
)

type memberClass struct {
	status int
	// bounds reports the EN or DIS proof consumed a capacity/invariant
	// bound (invalid after Session.Inject).
	bounds bool
	// forceEN lists the m_pre preconditions under which every enabling
	// conjunct holds (valid only when forceENok); forceENBounds reports
	// that conjuncts not in the list were satisfied via ubBound.
	forceEN       []precond
	forceENok     bool
	forceENBounds bool
	// forceDIS is one m_pre precondition forcing a failing conjunct.
	forceDIS   precond
	forceDISok bool
}

// classify derives what the facts prove about immediate transition u at
// the current accumulated marking, and which preconditions could settle it
// either way.
func (b *chainBuilder) classify(u int32) memberClass {
	c := b.c
	mc := memberClass{status: clUNK}
	in := c.in[c.inOff[u]:c.inOff[u+1]]
	inh := c.inh[c.inhOff[u]:c.inhOff[u+1]]
	simple := !c.guarded[u] && len(inh) == 0 && !c.hasCapOut[u]

	// DIS via tangibility: the pre-event marking of a timed parent was
	// tangible, so u was disabled there; an unguarded input-arcs-only
	// member stays disabled while no input place has gained tokens.
	if b.timedParent && simple && len(in) > 0 {
		still := true
		for _, a := range in {
			if b.acc[a.place] > 0 {
				still = false
				break
			}
		}
		if still {
			mc.status = clDIS
			return mc
		}
	}
	// DIS via one provably failing conjunct.
	for _, a := range in {
		w := int64(a.weight)
		if b.ubSafe[a.place]+b.acc[a.place] < w {
			mc.status = clDIS
			return mc
		}
		if b.ubBound[a.place]+b.acc[a.place] < w {
			mc.status = clDIS
			mc.bounds = true
			return mc
		}
	}
	for _, a := range inh {
		if b.lb[a.place]+b.acc[a.place] >= int64(a.weight) {
			mc.status = clDIS
			return mc
		}
	}
	if c.hasCapOut[u] {
		for _, a := range c.out[c.outOff[u]:c.outOff[u+1]] {
			cp := int64(c.net.Places[a.place].Capacity)
			if cp <= 0 {
				continue
			}
			room := cp + b.consumed(u, a.place) - int64(a.weight)
			if b.lb[a.place]+b.acc[a.place] > room {
				mc.status = clDIS
				return mc
			}
		}
	}

	mc.forceDIS, mc.forceDISok = b.forceDISFor(u)
	if c.guarded[u] {
		// A guard only restricts further: enabling is never provable and
		// no m_pre precondition can force it.
		return mc
	}

	// EN proof (every conjunct) and the force-EN precondition set.
	en, enBounds, forceOK := true, false, true
	var force []precond
	for _, a := range in {
		w := int64(a.weight)
		if b.lb[a.place]+b.acc[a.place] >= w {
			continue
		}
		en = false
		th := w - b.acc[a.place]
		if th < 0 {
			// Only reachable for negPlace inputs; m_pre >= 0 is stricter
			// and packable, and a stricter precondition is always sound.
			th = 0
		}
		if th > int64(math.MaxInt32) || th > b.ubSafe[a.place] || th > b.ubBound[a.place] || b.lbForced[a.place] {
			forceOK = false
			continue
		}
		force = append(force, makePrecond(a.place, int(th), false))
	}
	for _, a := range inh {
		w := int64(a.weight)
		if b.ubSafe[a.place]+b.acc[a.place] <= w-1 {
			continue
		}
		if b.ubBound[a.place]+b.acc[a.place] <= w-1 {
			enBounds = true
			continue
		}
		en = false
		th := w - b.acc[a.place] // require m_pre < th
		if th < 0 || th > int64(math.MaxInt32) || (th == 0 && !c.negPlace[a.place]) || b.lb[a.place] >= th {
			forceOK = false
			continue
		}
		force = append(force, makePrecond(a.place, int(th), true))
	}
	if c.hasCapOut[u] {
		for _, a := range c.out[c.outOff[u]:c.outOff[u+1]] {
			cp := int64(c.net.Places[a.place].Capacity)
			if cp <= 0 {
				continue
			}
			room := cp + b.consumed(u, a.place) - int64(a.weight)
			if b.ubSafe[a.place]+b.acc[a.place] <= room {
				continue
			}
			if b.ubBound[a.place]+b.acc[a.place] <= room {
				enBounds = true
				continue
			}
			en = false
			th := room - b.acc[a.place] + 1 // require m_pre < th
			if th < 0 || th > int64(math.MaxInt32) || (th == 0 && !c.negPlace[a.place]) || b.lb[a.place] >= th {
				forceOK = false
				continue
			}
			force = append(force, makePrecond(a.place, int(th), true))
		}
	}
	if en {
		mc.status = clEN
		mc.bounds = enBounds
		return mc
	}
	if forceOK && b.timedParent && simple && len(in) > 0 && b.impliesEnabledAtPre(u, force) {
		// Forcing every conjunct would assert u was enabled at the
		// tangible pre-event marking — a contradiction, so the chain
		// could never apply at runtime.
		forceOK = false
	}
	mc.forceEN, mc.forceENok, mc.forceENBounds = force, forceOK, enBounds
	return mc
}

// impliesEnabledAtPre reports whether the facts plus the hypothetical
// >=-preconditions would imply every input arc of u satisfied at m_pre
// itself (acc excluded) — impossible at a tangible marking.
func (b *chainBuilder) impliesEnabledAtPre(u int32, force []precond) bool {
	for _, a := range b.c.in[b.c.inOff[u]:b.c.inOff[u+1]] {
		lb := b.lb[a.place]
		for _, pc := range force {
			if !pc.lt() && pc.place() == a.place && int64(pc.thresh()) > lb {
				lb = int64(pc.thresh())
			}
		}
		if lb < int64(a.weight) {
			return false
		}
	}
	return true
}

// forceDISFor derives one m_pre precondition forcing a failing enabling
// conjunct of u: input arcs first, then inhibitors.
func (b *chainBuilder) forceDISFor(u int32) (precond, bool) {
	c := b.c
	for _, a := range c.in[c.inOff[u]:c.inOff[u+1]] {
		th := int64(a.weight) - b.acc[a.place] // require m_pre < th
		if th < 0 || th > int64(math.MaxInt32) || (th == 0 && !c.negPlace[a.place]) || b.lb[a.place] >= th {
			continue
		}
		return makePrecond(a.place, int(th), true), true
	}
	for _, a := range c.inh[c.inhOff[u]:c.inhOff[u+1]] {
		th := int64(a.weight) - b.acc[a.place] // require m_pre >= th
		if th < 0 {
			th = 0
		}
		if th > int64(math.MaxInt32) || th > b.ubSafe[a.place] || th > b.ubBound[a.place] {
			continue
		}
		return makePrecond(a.place, int(th), false), true
	}
	return 0, false
}

// tryFire determines the resolver's next action from priority level gi
// down, committing preconditions as needed. It returns the transition the
// resolver would certainly fire (fired >= 0), a level proven fully live
// whose draw can be replayed (conflict >= 0), or (-1, -1) when neither is
// provable. On (-1, -1) every speculative commit has been rolled back.
func (b *chainBuilder) tryFire(gi int) (fired int32, conflict int) {
	c := b.c
	if gi >= len(c.groups) {
		return -1, -1
	}
	members := c.groups[gi].members
	cls := make([]memberClass, len(members))
	live, enCount := 0, 0
	disBounds := false
	for i, u := range members {
		cls[i] = b.classify(u)
		switch cls[i].status {
		case clDIS:
			if cls[i].bounds {
				disBounds = true
			}
		case clEN:
			enCount++
			live++
		default:
			live++
		}
	}
	if live == 0 {
		// The whole level is proven dead: descend freely. The descent
		// relies on these DIS proofs, so commit their bounds use; a failed
		// deeper search is rolled back by the caller's mark.
		if disBounds {
			b.usedBounds = true
		}
		return b.tryFire(gi + 1)
	}
	// The resolver acts at this level; every outcome leans on the DIS
	// proofs above (they pin the live set).
	commitDIS := func() {
		if disBounds {
			b.usedBounds = true
		}
	}
	// forceConflict proves the whole level live — EN members as they are,
	// unknowns via committed force-EN preconditions — so the terminal
	// weighted draw can be replayed from the conflict tables (timed
	// parents only: inside the resolver the plain scan continues anyway).
	forceConflict := func() (int32, int) {
		if !b.timedParent || live != len(members) || len(members) < 2 {
			return -1, -1
		}
		for i := range cls {
			if cls[i].status == clUNK && !cls[i].forceENok {
				return -1, -1
			}
		}
		m := b.mark()
		for i := range cls {
			switch cls[i].status {
			case clEN:
				if cls[i].bounds {
					b.usedBounds = true
				}
			case clUNK:
				if cls[i].forceENBounds {
					b.usedBounds = true
				}
				for _, pc := range cls[i].forceEN {
					if !b.commitPrecond(pc) {
						b.restore(m)
						return -1, -1
					}
				}
			}
		}
		commitDIS()
		return -1, gi
	}
	unkCount := live - enCount
	if unkCount == 0 {
		if live == 1 {
			for i, u := range members {
				if cls[i].status == clEN {
					commitDIS()
					if cls[i].bounds {
						b.usedBounds = true
					}
					return u, -1
				}
			}
		}
		return forceConflict()
	}
	if enCount > 0 {
		// Proven-live members forbid descending past this level; forcing
		// the rest live is the only remaining option.
		return forceConflict()
	}
	// Every live member is unknown: prefer descending — force them all
	// disabled and look for a provable firing at a lower level.
	allDIS := true
	for i := range cls {
		if cls[i].status == clUNK && !cls[i].forceDISok {
			allDIS = false
			break
		}
	}
	if allDIS {
		m := b.mark()
		ok := true
		for i := range cls {
			if cls[i].status == clUNK && !b.commitPrecond(cls[i].forceDIS) {
				ok = false
				break
			}
		}
		if ok {
			commitDIS()
			if f, cg := b.tryFire(gi + 1); f >= 0 || cg >= 0 {
				return f, cg
			}
		}
		b.restore(m)
	}
	// The descent proved nothing fires below: force an enabling here.
	if live == 1 {
		idx := -1
		for i := range cls {
			if cls[i].status == clUNK {
				idx = i
			}
		}
		if cls[idx].forceENok {
			m := b.mark()
			for _, pc := range cls[idx].forceEN {
				if !b.commitPrecond(pc) {
					b.restore(m)
					return -1, -1
				}
			}
			if cls[idx].forceENBounds {
				b.usedBounds = true
			}
			commitDIS()
			return members[idx], -1
		}
		return -1, -1
	}
	return forceConflict()
}

// deadAtPre reports whether the committed facts imply some unguarded
// immediate was enabled at m_pre itself — impossible at the tangible
// pre-event marking of a timed parent, so a chain whose preconditions
// reach this state can never apply at runtime. The driver rolls back the
// step that produced the contradiction, keeping the still-satisfiable
// prefix.
func (b *chainBuilder) deadAtPre() bool {
	if !b.timedParent {
		return false
	}
	for _, g := range b.c.groups {
		for _, u := range g.members {
			if !b.c.guarded[u] && b.enabledAtPreImplied(u) {
				return true
			}
		}
	}
	return false
}

// enabledAtPreImplied reports whether the facts prove every enabling
// conjunct of u at m_pre (the accumulator excluded).
func (b *chainBuilder) enabledAtPreImplied(u int32) bool {
	c := b.c
	for _, a := range c.in[c.inOff[u]:c.inOff[u+1]] {
		if b.lb[a.place] < int64(a.weight) {
			return false
		}
	}
	for _, a := range c.inh[c.inhOff[u]:c.inhOff[u+1]] {
		if min(b.ubSafe[a.place], b.ubBound[a.place]) > int64(a.weight)-1 {
			return false
		}
	}
	if c.hasCapOut[u] {
		for _, a := range c.out[c.outOff[u]:c.outOff[u+1]] {
			cp := int64(c.net.Places[a.place].Capacity)
			if cp <= 0 {
				continue
			}
			room := cp + b.consumed(u, a.place) - int64(a.weight)
			if min(b.ubSafe[a.place], b.ubBound[a.place]) > room {
				return false
			}
		}
	}
	return true
}

// compressPreconds folds committed preconditions to the strictest one per
// (place, form): the conditions are conjunctive, so for the >=-form the
// largest threshold subsumes the rest, for the <-form the smallest.
func compressPreconds(pcs []precond) []precond {
	var out []precond
	for _, pc := range pcs {
		merged := false
		for i, prev := range out {
			if prev.place() != pc.place() || prev.lt() != pc.lt() {
				continue
			}
			if pc.lt() == (pc.thresh() < prev.thresh()) {
				out[i] = pc
			}
			merged = true
			break
		}
		if !merged {
			out = append(out, pc)
		}
	}
	return out
}

// buildFusedChains runs the static resolver replay for every transition
// and records the provable chain prefix, its runtime preconditions, the
// bounds dependency, and the terminal conflict level if one was proven.
func (c *Compiled) buildFusedChains(nT, nP int) {
	c.fusedOff = make([]int32, nT+1)
	c.precondOff = make([]int32, nT+1)
	c.conflictGroup = make([]int32, nT)
	c.boundsDep = make([]bool, nT)
	var b *chainBuilder
	if len(c.groups) > 0 {
		b = newChainBuilder(c, nP)
	}
	for t := 0; t < nT; t++ {
		c.conflictGroup[t] = -1
		if b != nil {
			b.reset(int32(t))
			chainStart := len(c.fusedChain)
			for len(c.fusedChain)-chainStart < maxFusedChain {
				m := b.mark()
				fired, conflict := b.tryFire(0)
				if conflict >= 0 {
					if b.deadAtPre() {
						b.restore(m)
						break
					}
					c.conflictGroup[t] = int32(conflict)
					break
				}
				if fired < 0 {
					b.restore(m)
					break
				}
				if b.deadAtPre() {
					b.restore(m)
					break
				}
				c.fusedChain = append(c.fusedChain, fired)
				for _, d := range c.deltas[c.deltaOff[fired]:c.deltaOff[fired+1]] {
					b.acc[d.place] += int64(d.weight)
				}
			}
			if len(c.fusedChain) > chainStart || c.conflictGroup[t] >= 0 {
				c.preconds = append(c.preconds, compressPreconds(b.preconds)...)
				c.boundsDep[t] = b.usedBounds
			}
		}
		c.fusedOff[t+1] = int32(len(c.fusedChain))
		c.precondOff[t+1] = int32(len(c.preconds))
	}
}

// FusedChain returns the immediate transitions fused into transition t's
// firing program, in firing order, or nil when the firing is unfused.
func (c *Compiled) FusedChain(t TransitionID) []TransitionID {
	chain := c.fusedChain[c.fusedOff[t]:c.fusedOff[t+1]]
	if len(chain) == 0 {
		return nil
	}
	out := make([]TransitionID, len(chain))
	for i, f := range chain {
		out[i] = TransitionID(f)
	}
	return out
}

// FusedPreconds renders transition t's runtime chain preconditions as
// human-readable "place OP n" strings (places by name), in table order. An
// empty result means t's chain (if any) applies unconditionally.
func (c *Compiled) FusedPreconds(t TransitionID) []string {
	pcs := c.preconds[c.precondOff[t]:c.precondOff[t+1]]
	if len(pcs) == 0 {
		return nil
	}
	out := make([]string, len(pcs))
	for i, pc := range pcs {
		op := ">="
		if pc.lt() {
			op = "<"
		}
		out[i] = fmt.Sprintf("%s %s %d", c.net.Places[pc.place()].Name, op, pc.thresh())
	}
	return out
}

// BoundsDependent reports whether transition t's fused chain relies on
// capacity or P-invariant bounds — proofs valid only on the unperturbed
// net's reachability set, so the chain is suspended for the rest of a run
// once Session.Inject perturbs the marking.
func (c *Compiled) BoundsDependent(t TransitionID) bool { return c.boundsDep[t] }

// FusedConflict returns the members of the proven-live immediate priority
// level terminating transition t's fused chain — the set the engine's
// replayed weighted draw chooses from — or nil when the chain has no
// conflict terminal.
func (c *Compiled) FusedConflict(t TransitionID) []TransitionID {
	gi := c.conflictGroup[t]
	if gi < 0 {
		return nil
	}
	members := c.groups[gi].members
	out := make([]TransitionID, len(members))
	for i, m := range members {
		out[i] = TransitionID(m)
	}
	return out
}

// soloProg returns t's chain-free firing program: the dedicated solo
// program when t has a fused chain, else the main program (which is
// already solo).
func (c *Compiled) soloProg(t int32) []uint64 {
	if c.fusedOff[t+1] > c.fusedOff[t] {
		return c.soloProgs[c.soloOff[t]:c.soloOff[t+1]]
	}
	return c.progs[c.progOff[t]:c.progOff[t+1]]
}

// buildPrograms fuses each transition's net deltas — combined with the
// deltas of its fused vanishing chain, places with zero net effect omitted —
// with the affected places' conditions into a flat firing program. A
// transition with a fused chain additionally gets a solo program (its own
// deltas alone): when a runtime precondition fails, the engine fires the
// bare transition and falls back to the resolver.
func (c *Compiled) buildPrograms(nT int) error {
	c.progOff = make([]int32, nT+1)
	c.soloOff = make([]int32, nT+1)
	comb := make(map[int32]int32)
	var places []int32
	appendProg := func(dst []uint64, t int, chain []int32) ([]uint64, error) {
		clear(comb)
		places = places[:0]
		addDeltas := func(id int32) {
			for _, d := range c.deltas[c.deltaOff[id]:c.deltaOff[id+1]] {
				if _, seen := comb[d.place]; !seen {
					places = append(places, d.place)
				}
				comb[d.place] += d.weight
			}
		}
		addDeltas(int32(t))
		for _, f := range chain {
			addDeltas(f)
		}
		slices.Sort(places)
		for _, p := range places {
			w := comb[p]
			if w == 0 {
				continue
			}
			if w < -32768 || w > 32767 {
				return nil, fmt.Errorf("petri: net token delta %d of transition %q exceeds the compiled engine's ±32767 range", w, c.net.Transitions[t].Name)
			}
			cs := c.conds[c.condOff[p]:c.condOff[p+1]]
			if len(cs) > 65535 {
				return nil, fmt.Errorf("petri: place %q has %d enabling conditions, exceeding the compiled engine's 65535-per-place limit", c.net.Places[p].Name, len(cs))
			}
			header := uint64(uint32(p)) |
				uint64(uint16(len(cs)))<<32 |
				uint64(uint16(int16(w)))<<48
			dst = append(dst, header)
			for _, cd := range cs {
				dst = append(dst, uint64(cd))
			}
		}
		return dst, nil
	}
	for t := 0; t < nT; t++ {
		chain := c.fusedChain[c.fusedOff[t]:c.fusedOff[t+1]]
		var err error
		if c.progs, err = appendProg(c.progs, t, chain); err != nil {
			return err
		}
		if len(chain) > 0 {
			if c.soloProgs, err = appendProg(c.soloProgs, t, nil); err != nil {
				return err
			}
		}
		c.progOff[t+1] = int32(len(c.progs))
		c.soloOff[t+1] = int32(len(c.soloProgs))
	}
	return nil
}

// buildConditions compiles the per-place threshold conditions for every
// unguarded, non-multi-server transition. Guards (arbitrary marking
// predicates) and multi-server transitions (degree, not just enabling) are
// handled by full re-checks via guardedImms/specialTimed instead.
func (c *Compiled) buildConditions(nP int) {
	n := c.net
	perPlace := make([][]cond, nP)
	for i := range n.Transitions {
		tr := &n.Transitions[i]
		if c.guarded[i] || (tr.Kind == Timed && c.multi[i]) {
			continue
		}
		timed := tr.Kind == Timed
		for _, a := range tr.Inputs {
			perPlace[a.Place] = append(perPlace[a.Place],
				makeCond(int32(i), a.Weight, false, timed))
		}
		for _, a := range tr.Inhibitors {
			perPlace[a.Place] = append(perPlace[a.Place],
				makeCond(int32(i), a.Weight, true, timed))
		}
		if c.hasCapOut[i] {
			for _, a := range tr.Outputs {
				capacity := n.Places[a.Place].Capacity
				if capacity <= 0 {
					continue
				}
				consumed := 0
				for _, in := range tr.Inputs {
					if in.Place == a.Place {
						consumed += in.Weight
					}
				}
				// Unsatisfied iff m - consumed + w > capacity, i.e.
				// m >= capacity + consumed - w + 1.
				perPlace[a.Place] = append(perPlace[a.Place],
					makeCond(int32(i), capacity+consumed-a.Weight+1, true, timed))
			}
		}
	}
	c.condOff = make([]int32, nP+1)
	for p, cs := range perPlace {
		c.conds = append(c.conds, cs...)
		c.condOff[p+1] = int32(len(c.conds))
	}
}

// buildDeps derives the place → dependent-transitions inverse index.
func (c *Compiled) buildDeps(nP int) {
	n := c.net
	addDep := func(p PlaceID, t int) {
		deps := &c.timedDeps
		if n.Transitions[t].Kind == Immediate {
			deps = &c.immDeps
		}
		l := (*deps)[p]
		if len(l) > 0 && l[len(l)-1] == int32(t) {
			return
		}
		(*deps)[p] = append(l, int32(t))
	}
	for i := range n.Transitions {
		tr := &n.Transitions[i]
		if tr.Guard != nil {
			// A guard can read the whole marking: conservatively depend on
			// every place.
			for p := 0; p < nP; p++ {
				addDep(PlaceID(p), i)
			}
			continue
		}
		for _, a := range tr.Inputs {
			addDep(a.Place, i)
		}
		for _, a := range tr.Inhibitors {
			addDep(a.Place, i)
		}
		if c.hasCapOut[i] {
			for _, a := range tr.Outputs {
				if n.Places[a.Place].Capacity > 0 {
					addDep(a.Place, i)
				}
			}
		}
	}
	for p := 0; p < nP; p++ {
		c.timedDeps[p] = dedupSorted(c.timedDeps[p])
		c.immDeps[p] = dedupSorted(c.immDeps[p])
	}
}

// MustCompile is Compile that panics on error, for nets known to be valid.
func MustCompile(n *Net) *Compiled {
	c, err := Compile(n)
	if err != nil {
		panic(err)
	}
	return c
}

// Net returns the net this compiled form was built from.
func (c *Compiled) Net() *Net { return c.net }

// dedupSorted removes duplicates from an ascending slice in place.
func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// enabled reports whether transition t may fire in marking m, mirroring
// Net.Enabled over the flattened arc arrays. The common case — input arcs
// only — stays on a single contiguous scan; inhibitors, capacities and
// guards divert to the slow path. The engine uses this for guarded and
// multi-server transitions and for one-off queries; unguarded single-server
// enabling is answered by the unsatisfied-condition counters.
func (c *Compiled) enabled(m Marking, t int32) bool {
	for _, a := range c.in[c.inOff[t]:c.inOff[t+1]] {
		if m[a.place] < int(a.weight) {
			return false
		}
	}
	if !c.complexEnab[t] {
		return true
	}
	return c.enabledComplex(m, t)
}

// enabledComplex checks the inhibitor, capacity and guard conditions of a
// transition whose input arcs are already satisfied.
func (c *Compiled) enabledComplex(m Marking, t int32) bool {
	for _, a := range c.inh[c.inhOff[t]:c.inhOff[t+1]] {
		if m[a.place] >= int(a.weight) {
			return false
		}
	}
	if c.hasCapOut[t] {
		for _, a := range c.out[c.outOff[t]:c.outOff[t+1]] {
			p := &c.net.Places[a.place]
			if p.Capacity > 0 {
				// Net effect on the place: outputs minus inputs consumed
				// by this same firing.
				consumed := 0
				for _, in := range c.in[c.inOff[t]:c.inOff[t+1]] {
					if in.place == a.place {
						consumed += int(in.weight)
					}
				}
				if m[a.place]-consumed+int(a.weight) > p.Capacity {
					return false
				}
			}
		}
	}
	if c.guarded[t] {
		if g := c.net.Transitions[t].Guard; g != nil && !g(m) {
			return false
		}
	}
	return true
}

// enablingDegree mirrors Net.EnablingDegree over the flattened arcs.
func (c *Compiled) enablingDegree(m Marking, t int32) int {
	if !c.enabled(m, t) {
		return 0
	}
	tr := &c.net.Transitions[t]
	if tr.Servers == 0 || tr.Servers == 1 {
		return 1
	}
	deg := -1
	for _, a := range c.in[c.inOff[t]:c.inOff[t+1]] {
		d := m[a.place] / int(a.weight)
		if deg < 0 || d < deg {
			deg = d
		}
	}
	if deg < 0 {
		deg = 1 // source transition
	}
	if tr.Servers > 1 && deg > tr.Servers {
		deg = tr.Servers
	}
	return deg
}
