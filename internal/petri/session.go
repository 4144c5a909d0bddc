package petri

import (
	"context"
	"fmt"
	"math"
)

// Injection is an external marking change applied to an open Session:
// Tokens (possibly negative) are added to Place. Composition layers use it
// to turn events of one net into token flow in another — e.g. a packet
// arriving at a sensor node becomes workload tokens in that node's CPU net.
type Injection struct {
	Place  PlaceID
	Tokens int
}

// Session is an incrementally driven simulation run of a compiled net: the
// same engine Simulate uses, but with the event loop inverted so an outside
// scheduler decides how far simulated time advances and may inject external
// token arrivals between events. A field of nodes is simulated by opening
// one Session per node and interleaving StepTo/Inject calls under a single
// global clock.
//
// A Session driven by StepTo to (or past) each of its own event times and
// then finished produces a SimResult bit-identical to Compiled.Simulate
// with the same options — session_test.go pins this equivalence.
//
// The zero Session is invalid; obtain one from Compiled.OpenSession or
// Compiled.OpenSessions. A Session is not safe for concurrent use. Every
// Session must be ended with exactly one Finish or Close call, which
// releases its engine.
type Session struct {
	c    *Compiled
	e    *engine
	done bool
	err  error
}

// OpenSession starts an incremental run of the compiled net. The options
// carry the same meaning as in SimulateContext: statistics cover
// [Warmup, Warmup+Duration], and the context is polled during event
// processing. The net's initial vanishing chain is resolved and the initial
// timers are scheduled before OpenSession returns, so the session starts at
// a tangible marking at time 0. It is the n = 1 case of OpenSessions.
func (c *Compiled) OpenSession(ctx context.Context, opt SimOptions) (*Session, error) {
	ss, err := c.OpenSessions(ctx, 1, func(int) SimOptions { return opt })
	if err != nil {
		return nil, err
	}
	return &ss[0], nil
}

// OpenSessions opens n sessions of the compiled net, session i with options
// opt(i), each exactly as OpenSession would. opt is called once per session
// in ascending i. Engines recycled by the net's pool are used first; the
// rest are carved from one allocation per slice kind, and the sessions share
// one backing array, so a field of thousands of nodes on one net opens with
// a handful of allocations instead of a score per node. Engines carved for
// more than one session are not pooled when their sessions end; they are
// freed with their slab. On error every session opened so far is closed.
func (c *Compiled) OpenSessions(ctx context.Context, n int, opt func(i int) SimOptions) ([]Session, error) {
	if n < 0 {
		return nil, fmt.Errorf("petri: OpenSessions: negative session count %d", n)
	}
	ss := make([]Session, n)
	var carved []engine
	for i := range ss {
		o := opt(i)
		if err := o.validate(); err != nil {
			return nil, closeAll(ss[:i], err)
		}
		var e *engine
		if len(carved) == 0 {
			if e, _ = c.enginePool.Get().(*engine); e == nil {
				carved = newEngines(c, n-i)
			}
		}
		if e == nil {
			e, carved = &carved[0], carved[1:]
		}
		e.reset(ctx, o)
		if err := e.start(); err != nil {
			c.releaseEngine(e)
			return nil, closeAll(ss[:i], err)
		}
		if o.Warmup == 0 {
			e.beginMeasurement()
		}
		ss[i] = Session{c: c, e: e}
	}
	return ss, nil
}

// closeAll closes every session in ss and returns err.
func closeAll(ss []Session, err error) error {
	for i := range ss {
		ss[i].Close()
	}
	return err
}

// fail poisons the session with err, releasing the engine. All later calls
// return the same error.
func (s *Session) fail(err error) error {
	s.err = err
	s.done = true
	s.c.releaseEngine(s.e)
	s.e = nil
	return err
}

// active returns an error when the session cannot accept further calls.
func (s *Session) active() error {
	if s.err != nil {
		return s.err
	}
	if s.done {
		return fmt.Errorf("petri: session already finished")
	}
	return nil
}

// Now returns the session's current simulated time.
func (s *Session) Now() float64 {
	if s.done {
		return math.NaN()
	}
	return s.e.now
}

// Horizon returns Warmup+Duration, the time Finish advances to.
func (s *Session) Horizon() float64 {
	if s.done {
		return math.NaN()
	}
	return s.e.opt.Warmup + s.e.opt.Duration
}

// NextEventTime returns the absolute time of the session's earliest
// scheduled internal event, or +Inf when none is scheduled (the net is
// deadlocked until an Inject re-enables it). An external scheduler merges
// these across sessions to find the globally next event.
func (s *Session) NextEventTime() float64 {
	if s.done {
		return math.NaN()
	}
	t, id := s.e.nextTimed()
	if id < 0 {
		return math.Inf(1)
	}
	return t
}

// Tokens returns the current token count of place p. Unlike firing
// counters, the marking is maintained during warmup too, so composition
// layers can observe traffic from time 0.
func (s *Session) Tokens(p PlaceID) int {
	if s.done || int(p) < 0 || int(p) >= len(s.e.marking) {
		return 0
	}
	return s.e.marking[p]
}

// Firings returns the measured-period firing count of transition t so far.
func (s *Session) Firings(t TransitionID) uint64 {
	if s.done || int(t) < 0 || int(t) >= len(s.e.firings) {
		return 0
	}
	return s.e.firings[t]
}

// StepTo fires every internal event scheduled at or before t, in the exact
// order the closed-loop engine would, and advances the clock to t. Time
// only moves forward: t must be at least Now. Stepping past the warmup
// boundary begins measurement at exactly the warmup time, matching run().
func (s *Session) StepTo(t float64) error {
	if err := s.active(); err != nil {
		return err
	}
	e := s.e
	if t < e.now {
		return fmt.Errorf("petri: StepTo(%v) before current time %v", t, e.now)
	}
	if hz := e.opt.Warmup + e.opt.Duration; t > hz {
		return fmt.Errorf("petri: StepTo(%v) beyond horizon %v", t, hz)
	}
	for {
		et, id := e.nextTimed()
		if id < 0 || et > t {
			break
		}
		if !e.measuring && et >= e.opt.Warmup {
			e.now = e.opt.Warmup
			e.beginMeasurement()
		}
		e.advanceTo(et)
		if err := e.fireTimed(int32(id)); err != nil {
			return s.fail(err)
		}
	}
	if !e.measuring && t >= e.opt.Warmup {
		e.now = e.opt.Warmup
		e.beginMeasurement()
	}
	e.advanceTo(t)
	return nil
}

// Inject applies external marking changes at the current time: each
// injection adds Tokens to Place, after which the resulting vanishing
// markings are resolved and the timers adjacent to the touched places are
// re-synchronized — exactly the bookkeeping an internal firing performs, so
// injected tokens enable, disable and re-arm transitions with the same
// semantics as token flow from arcs.
//
// Injections that would drive a place negative, or name an unknown place,
// are rejected up front with no state change. An immediate-transition
// livelock triggered by the injected tokens poisons the session.
func (s *Session) Inject(injs ...Injection) error {
	if err := s.active(); err != nil {
		return err
	}
	e := s.e
	for i, in := range injs {
		p := int(in.Place)
		if p < 0 || p >= len(e.marking) {
			return fmt.Errorf("petri: Inject: no place %d", p)
		}
		sum := e.marking[p] + in.Tokens
		for _, other := range injs[:i] {
			if other.Place == in.Place {
				sum += other.Tokens
			}
		}
		if sum < 0 {
			return fmt.Errorf("petri: Inject: place %q would go negative (%d)", e.net.Places[p].Name, sum)
		}
	}
	// No firing started this event: collect every timed flip, including
	// transitions a closed-loop event would re-check unconditionally.
	e.curTimed = -1
	changed := false
	for _, in := range injs {
		if in.Tokens == 0 {
			continue
		}
		changed = true
		s.applyDelta(int32(in.Place), in.Tokens)
	}
	if !changed {
		return nil
	}
	// The injected marking may lie outside the unperturbed net's
	// reachability set, invalidating the compiler's capacity/P-invariant
	// bounds for the rest of the run.
	e.bndBroken = true
	c := s.c
	if len(c.guardedImms) > 0 {
		for _, i := range c.guardedImms {
			en := c.enabled(e.marking, i)
			if en != e.guardEnabled[i] {
				e.guardEnabled[i] = en
				e.bumpGroup(c.groupOf[i], en)
			}
		}
	}
	if err := e.resolveImmediates(0); err != nil {
		return s.fail(err)
	}
	e.recordMarking()
	e.syncDirtyTimers(-1)
	e.clearDirty()
	return nil
}

// applyDelta adds d tokens to place p and propagates the change through the
// place's compiled threshold conditions — the same satisfaction-flip
// arithmetic fireAndUpdate applies to arc-driven deltas.
func (s *Session) applyDelta(p int32, d int) {
	e := s.e
	c := s.c
	v0 := e.marking[p]
	v1 := v0 + d
	e.marking[p] = v1
	e.dirty = append(e.dirty, p)
	for _, cd := range c.conds[c.condOff[p]:c.condOff[p+1]] {
		thresh := cd.thresh()
		l1 := v1 < thresh
		if (v0 < thresh) == l1 {
			continue
		}
		tt := cd.transition()
		if l1 != cd.geq() { // became unsatisfied
			if e.unsat[tt] == 0 {
				e.noteFlip(tt, cd.timed(), false)
			}
			e.unsat[tt]++
		} else {
			e.unsat[tt]--
			if e.unsat[tt] == 0 {
				e.noteFlip(tt, cd.timed(), true)
			}
		}
	}
}

// Finish fires any remaining events up to the horizon, closes the
// statistics at the horizon and returns the run's SimResult — the exact
// result assembly of the closed-loop engine, including the deadlock
// convention (an empty schedule means the final marking absorbs the
// remaining time). The session's engine is released; the session cannot be
// used afterwards.
func (s *Session) Finish() (*SimResult, error) {
	if err := s.active(); err != nil {
		return nil, err
	}
	e := s.e
	horizon := e.opt.Warmup + e.opt.Duration
	if err := s.StepTo(horizon); err != nil {
		return nil, err
	}
	n := e.net
	res := &SimResult{
		Time:          e.opt.Duration,
		PlaceAvg:      make([]float64, len(n.Places)),
		PlaceNonEmpty: make([]float64, len(n.Places)),
		Firings:       append([]uint64(nil), e.firings...),
		Throughput:    make([]float64, len(n.Transitions)),
		Deadlocked:    e.nothingScheduled(),
		FinalMarking:  e.marking.Clone(),
	}
	for i := range n.Places {
		st := &e.pstats[i]
		res.PlaceAvg[i] = e.timeAvg(st.tokInt, st.tokT, st.tokV, horizon)
		res.PlaceNonEmpty[i] = e.timeAvg(st.busyInt, st.busyT, st.busyV, horizon)
	}
	for i := range n.Transitions {
		res.Throughput[i] = float64(e.firings[i]) / e.opt.Duration
	}
	s.done = true
	s.c.releaseEngine(e)
	s.e = nil
	return res, nil
}

// Close abandons the session without producing a result, releasing its
// engine. It is a no-op after Finish, Close or a poisoning error.
func (s *Session) Close() {
	if s.done {
		return
	}
	s.done = true
	s.c.releaseEngine(s.e)
	s.e = nil
}
