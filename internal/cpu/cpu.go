// Package cpu is the event-driven software simulator of the power-managed
// processor — the reproduction of the paper's Matlab simulator, which the
// paper treats as ground truth for both the Markov model and the Petri net.
//
// The simulated semantics follow Section 4 exactly: jobs arrive from an
// open (or closed) workload into a FIFO queue served at exponential (or
// general) service times; when the queue empties the CPU idles, and after a
// contiguous idle interval of PDT seconds it drops to standby; an arrival
// finding the CPU in standby triggers a constant PUD-second power-up before
// service resumes. The simulator reports the time fraction spent in each of
// the four power states (standby, power-up, idle, active), from which
// equation 25 yields energy.
//
// The event loop allocates nothing per event. A pending event is a value,
// a kind plus its time and a sequence number counting the scheduling calls,
// and events fire in (time, sequence) order, so simultaneous events fire
// first-scheduled first. Arrivals wait in a binary min-heap, one per
// thinking customer or one for an open source. The CPU has at most one
// event of its own pending (power-up completion, departure or power-down
// timer), so that event sits in one slot beside the heap; an arrival that
// finds the CPU idle cancels the timer by overwriting it with its
// departure. The FIFO job queue is a ring that grows only with the backlog.
package cpu

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Policy selects the power-management strategy.
type Policy int

const (
	// PolicyTimeout powers down after PDT seconds of contiguous idleness
	// (the paper's model).
	PolicyTimeout Policy = iota
	// PolicyNeverSleep keeps the CPU on forever, as an infinite PDT would
	// (PDT itself must stay finite; it is ignored): the plain M/M/1
	// baseline.
	PolicyNeverSleep
	// PolicyAlwaysSleep powers down the instant the queue empties
	// (PDT = 0).
	PolicyAlwaysSleep
)

func (p Policy) String() string {
	switch p {
	case PolicyTimeout:
		return "timeout"
	case PolicyNeverSleep:
		return "never-sleep"
	case PolicyAlwaysSleep:
		return "always-sleep"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Arrivals is the open-workload source. Exactly one of Arrivals and
	// Closed must be set.
	Arrivals workload.Source
	// Closed, when non-nil, selects a closed workload instead.
	Closed *workload.Closed
	// Service is the per-job service time distribution.
	Service dist.Distribution
	// PDT is the Power Down Threshold in seconds (used by PolicyTimeout).
	PDT float64
	// PUD is the Power Up Delay in seconds.
	PUD float64
	// Policy is the power-management policy (default PolicyTimeout).
	Policy Policy
	// SimTime is the measured simulation horizon in seconds.
	SimTime float64
	// Warmup is simulated before measurement starts.
	Warmup float64
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if (c.Arrivals == nil) == (c.Closed == nil) {
		return fmt.Errorf("cpu: exactly one of Arrivals and Closed must be set")
	}
	if c.Closed != nil {
		if err := c.Closed.Validate(); err != nil {
			return err
		}
	}
	if c.Service == nil {
		return fmt.Errorf("cpu: Service distribution is required")
	}
	// The `!(x >= 0)` / `!(x > 0)` forms also catch NaN. PDT must be
	// finite under every policy: never sleeping is PolicyNeverSleep.
	if !(c.PDT >= 0) || math.IsInf(c.PDT, 0) {
		return fmt.Errorf("cpu: PDT must be non-negative and finite, got %v", c.PDT)
	}
	if !(c.PUD >= 0) || math.IsInf(c.PUD, 0) {
		return fmt.Errorf("cpu: PUD must be non-negative and finite, got %v", c.PUD)
	}
	if !(c.SimTime > 0) || math.IsInf(c.SimTime, 0) {
		return fmt.Errorf("cpu: SimTime must be positive and finite, got %v", c.SimTime)
	}
	if !(c.Warmup >= 0) || math.IsInf(c.Warmup, 0) {
		return fmt.Errorf("cpu: Warmup must be non-negative and finite, got %v", c.Warmup)
	}
	return nil
}

// Result reports one simulation run.
type Result struct {
	// Fractions is the measured share of time per power state.
	Fractions energy.Fractions
	// JobsArrived and JobsServed count jobs during the measured period.
	JobsArrived, JobsServed uint64
	// MeanJobs is the time-averaged number of jobs in the system.
	MeanJobs float64
	// MeanLatency is the mean sojourn time of jobs completed during the
	// measured period.
	MeanLatency float64
	// MaxQueue is the largest number of jobs simultaneously in the system.
	MaxQueue int
	// PowerCycles counts standby -> power-up transitions.
	PowerCycles uint64
}

// EnergyJoules applies equation 25 over the measured horizon.
func (r *Result) EnergyJoules(p energy.PowerModel, seconds float64) float64 {
	return p.EnergyJoules(r.Fractions, seconds)
}

// eventKind says what a pending event does when it fires.
type eventKind uint8

const (
	noEvent eventKind = iota // marks an empty server slot
	arrive
	powerUpDone
	depart
	powerDown
)

// event is one pending event; seq numbers the events in scheduling order.
type event struct {
	t    float64
	seq  uint64
	kind eventKind
}

func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// ctxCheckStride is how many events run fires between context polls:
// frequent enough that cancellation lands within microseconds of wall
// clock, rare enough that the poll never shows up in profiles.
const ctxCheckStride = 1024

// openQueueCap is an open workload's initial job-queue capacity.
const openQueueCap = 16

// sim is the run state. Closed-workload customers are interchangeable, so
// neither events nor jobs record which customer they belong to.
type sim struct {
	cfg   Config
	rng   xrand.Rand
	now   float64
	state energy.State
	trace *traceCollector

	// queue is a ring of the arrival times of the jobs in the system, in
	// FIFO order from queue[head]; the first is in service.
	queue       []float64
	head, count int

	arrivals []event // min-heap by (t, seq)
	server   event   // the CPU's pending event, if kind != noEvent
	seq      uint64

	lastT   float64
	fracAcc [energy.NumStates]float64
	// warmupQueueIntegral snapshots the queue-length integral at the
	// warmup boundary so MeanJobs covers only the measured window.
	warmupQueueIntegral float64
	queueAcc            stats.TimeWeighted
	latency             stats.Summary
	arrived             uint64
	served              uint64
	maxQueue            int
	cycles              uint64
}

// Run executes one simulation and returns the measured result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the event loop polls the
// context every ctxCheckStride events and a cancelled context aborts the
// run mid-simulation with ctx.Err(). A sampled service, think or arrival
// delay that is negative, NaN or infinite fails the run with an error
// naming its source; an arrival gap of +Inf ends an open source instead.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runInternal(ctx, cfg, nil)
}

// runInternal is the shared body of Run and RunWithTrace; trace may be nil.
func runInternal(ctx context.Context, cfg Config, trace *traceCollector) (*Result, error) {
	s, err := newSim(cfg, trace)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Warmup + cfg.SimTime
	if err := s.run(ctx, horizon); err != nil {
		return nil, err
	}
	return s.result(horizon), nil
}

// newSim returns a run at time zero, in standby, with its first arrivals
// scheduled.
func newSim(cfg Config, trace *traceCollector) (*sim, error) {
	s := &sim{cfg: cfg, state: energy.Standby, trace: trace}
	s.rng.SeedStream(cfg.Seed, 0)
	s.queueAcc.Start(0, 0)
	if trace != nil {
		trace.onState(0, s.state)
	}
	if cfg.Closed == nil {
		s.queue = make([]float64, openQueueCap)
		s.arrivals = make([]event, 0, 1)
		return s, s.scheduleNextArrival()
	}
	s.queue = make([]float64, cfg.Closed.Customers)
	s.arrivals = make([]event, 0, cfg.Closed.Customers)
	for c := 0; c < cfg.Closed.Customers; c++ {
		if err := s.think(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// run fires the pending events in (t, seq) order up to and including the
// horizon and leaves the clock at the horizon.
func (s *sim) run(ctx context.Context, horizon float64) error {
	for countdown := ctxCheckStride; ; countdown-- {
		if countdown <= 0 {
			countdown = ctxCheckStride
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ev, ok := s.next(horizon)
		if !ok {
			break
		}
		s.now = ev.t
		var err error
		switch ev.kind {
		case arrive:
			err = s.arrive()
		case powerUpDone:
			err = s.powerUpDone()
		case depart:
			err = s.depart()
		case powerDown:
			s.setState(energy.Standby)
		}
		if err != nil {
			return err
		}
	}
	s.now = horizon
	return nil
}

// next removes and returns the earliest pending event; ok is false when
// none fires by the horizon.
func (s *sim) next(horizon float64) (ev event, ok bool) {
	if s.server.kind != noEvent && (len(s.arrivals) == 0 || s.server.before(&s.arrivals[0])) {
		if s.server.t > horizon {
			return ev, false
		}
		ev, s.server.kind = s.server, noEvent
		return ev, true
	}
	if len(s.arrivals) == 0 || s.arrivals[0].t > horizon {
		return ev, false
	}
	h := s.arrivals
	ev, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && h[m+1].before(&h[m]) {
			m++
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.arrivals = h
	return ev, true
}

// after returns an event of the given kind delay seconds from now.
func (s *sim) after(delay float64, kind eventKind) event {
	s.seq++
	return event{t: s.now + delay, seq: s.seq, kind: kind}
}

// scheduleArrival pushes an arrival delay seconds from now onto the heap.
func (s *sim) scheduleArrival(source string, delay float64) error {
	if err := s.checkDelay(source, delay); err != nil {
		return err
	}
	h := append(s.arrivals, s.after(delay, arrive))
	for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	s.arrivals = h
	return nil
}

// checkDelay rejects a sampled delay that is negative, NaN or infinite,
// naming its source: service, think or arrival.
func (s *sim) checkDelay(source string, d float64) error {
	if d >= 0 && !math.IsInf(d, 1) {
		return nil
	}
	return fmt.Errorf("cpu: %s delay %v sampled at t=%v; delays must be finite and non-negative", source, d, s.now)
}

// result closes the accounting at the horizon and reports the run.
func (s *sim) result(horizon float64) *Result {
	s.integrateTo(horizon)
	s.queueAcc.Advance(horizon)
	res := &Result{
		JobsArrived: s.arrived,
		JobsServed:  s.served,
		MeanLatency: s.latency.Mean(),
		MaxQueue:    s.maxQueue,
		PowerCycles: s.cycles,
	}
	for i := range s.fracAcc {
		res.Fractions[i] = s.fracAcc[i] / s.cfg.SimTime
	}
	// Queue integral over the measured window only.
	res.MeanJobs = (s.queueAcc.Integral(horizon) - s.warmupQueueIntegral) / s.cfg.SimTime
	return res
}

// warmupQueueIntegral is captured when the clock first passes the warmup
// boundary; see integrateTo.
func (s *sim) integrateTo(now float64) {
	from := s.lastT
	if from < s.cfg.Warmup {
		from = s.cfg.Warmup
	}
	if now > from {
		s.fracAcc[s.state] += now - from
	}
	if s.lastT < s.cfg.Warmup && now >= s.cfg.Warmup {
		s.warmupQueueIntegral = s.queueAcc.Integral(s.cfg.Warmup)
	}
	s.lastT = now
}

// setState accumulates elapsed time in the old state and switches.
func (s *sim) setState(ns energy.State) {
	s.integrateTo(s.now)
	s.state = ns
	if s.trace != nil {
		s.trace.onState(s.now, ns)
	}
}

func (s *sim) setQueueLen(n int) {
	s.queueAcc.Set(s.now, float64(n))
	if n > s.maxQueue {
		s.maxQueue = n
	}
}

// scheduleNextArrival draws the open source's next gap; +Inf means the
// source is exhausted.
func (s *sim) scheduleNextArrival() error {
	if gap := s.cfg.Arrivals.Next(&s.rng); !math.IsInf(gap, 1) {
		return s.scheduleArrival("arrival", gap)
	}
	return nil
}

// think schedules a closed-workload customer's next arrival.
func (s *sim) think() error {
	return s.scheduleArrival("think", s.cfg.Closed.Think.Sample(&s.rng))
}

func (s *sim) arrive() error {
	if s.now >= s.cfg.Warmup {
		s.arrived++
	}
	if s.count == len(s.queue) { // full: unroll the ring into one twice the size
		grown := make([]float64, 2*len(s.queue))
		copy(grown[copy(grown, s.queue[s.head:]):], s.queue[:s.head])
		s.queue, s.head = grown, 0
	}
	s.queue[(s.head+s.count)%len(s.queue)] = s.now
	s.count++
	s.setQueueLen(s.count)
	if s.cfg.Closed == nil {
		if err := s.scheduleNextArrival(); err != nil {
			return err
		}
	}
	switch s.state {
	case energy.Standby:
		s.setState(energy.PowerUp)
		s.cycles++
		s.server = s.after(s.cfg.PUD, powerUpDone)
	case energy.Idle:
		// Begin service: the departure replaces the pending power-down
		// timer in the server slot, which cancels it.
		return s.startService()
	case energy.PowerUp, energy.Active:
		// Job waits in the queue.
	}
	return nil
}

func (s *sim) powerUpDone() error {
	if s.count > 0 {
		return s.startService()
	}
	// Unreachable under the paper's semantics (power-up is triggered by an
	// arrival and nothing drains the queue during it), but harmless:
	s.becomeIdle()
	return nil
}

func (s *sim) startService() error {
	s.setState(energy.Active)
	d := s.cfg.Service.Sample(&s.rng)
	if err := s.checkDelay("service", d); err != nil {
		return err
	}
	s.server = s.after(d, depart)
	return nil
}

func (s *sim) depart() error {
	arrival := s.queue[s.head]
	s.head = (s.head + 1) % len(s.queue)
	s.count--
	s.setQueueLen(s.count)
	if s.now >= s.cfg.Warmup {
		s.served++
		s.latency.Add(s.now - arrival)
	}
	if s.cfg.Closed != nil {
		if err := s.think(); err != nil {
			return err
		}
	}
	if s.count > 0 {
		return s.startService()
	}
	s.becomeIdle()
	return nil
}

func (s *sim) becomeIdle() {
	switch s.cfg.Policy {
	case PolicyNeverSleep:
		s.setState(energy.Idle)
	case PolicyAlwaysSleep:
		s.setState(energy.Standby)
	default:
		if s.cfg.PDT == 0 {
			s.setState(energy.Standby)
			return
		}
		s.setState(energy.Idle)
		s.server = s.after(s.cfg.PDT, powerDown)
	}
}
