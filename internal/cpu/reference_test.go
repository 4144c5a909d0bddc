package cpu

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// refEvent is a scheduled closure, as in the general-purpose event kernel
// the typed loop replaced.
type refEvent struct {
	t      float64
	seq    uint64
	action func()
	index  int // heap index; -1 when not queued
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	ev.index = -1
	*h = old[:len(old)-1]
	return ev
}

// job is one queued task of the reference loop, which tracks the
// closed-workload customer it belongs to (-1 for open).
type job struct {
	arrival  float64
	customer int
}

// refSim is the closure-on-heap simulator kept as the oracle for the
// typed event loop: every event is a heap-allocated closure on a
// container/heap ordered by (time, seq), and cancelling the power-down
// timer removes it from the heap. Only the time and queue-length
// accounting is shared with the loop under test (acc).
type refSim struct {
	acc    *sim
	rng    *xrand.Rand
	events refHeap
	seq    uint64
	pdt    *refEvent
	queue  []job
}

// referenceRun simulates cfg with the reference loop and returns the same
// Result and trace as RunWithTrace. It panics on a sampled delay that is
// negative, NaN or infinite, as the replaced kernel did.
func referenceRun(cfg Config) (*Result, Trace) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	collector := &traceCollector{}
	r := &refSim{
		acc: &sim{cfg: cfg, state: energy.Standby, trace: collector},
		rng: xrand.NewStream(cfg.Seed, 0),
	}
	r.acc.queueAcc.Start(0, 0)
	collector.onState(0, energy.Standby)
	if cfg.Closed != nil {
		for c := 0; c < cfg.Closed.Customers; c++ {
			customer := c
			r.schedule(cfg.Closed.Think.Sample(r.rng), func() { r.arrive(customer) })
		}
	} else {
		r.scheduleNextArrival()
	}
	horizon := cfg.Warmup + cfg.SimTime
	for len(r.events) > 0 && r.events[0].t <= horizon {
		ev := heap.Pop(&r.events).(*refEvent)
		r.acc.now = ev.t
		ev.action()
	}
	r.acc.now = horizon
	res := r.acc.result(horizon)
	collector.close(horizon)
	return res, collector.trace
}

func (r *refSim) schedule(t float64, action func()) *refEvent {
	if math.IsNaN(t) || math.IsInf(t, 0) || t < r.acc.now {
		panic(fmt.Sprintf("reference: bad event time %v at now %v", t, r.acc.now))
	}
	ev := &refEvent{t: t, seq: r.seq, action: action, index: -1}
	r.seq++
	heap.Push(&r.events, ev)
	return ev
}

func (r *refSim) scheduleAfter(delay float64, action func()) *refEvent {
	if delay < 0 {
		panic(fmt.Sprintf("reference: negative delay %v", delay))
	}
	return r.schedule(r.acc.now+delay, action)
}

func (r *refSim) scheduleNextArrival() {
	gap := r.acc.cfg.Arrivals.Next(r.rng)
	if math.IsInf(gap, 1) {
		return
	}
	r.scheduleAfter(gap, func() { r.arrive(-1) })
}

func (r *refSim) arrive(customer int) {
	s := r.acc
	if s.now >= s.cfg.Warmup {
		s.arrived++
	}
	r.queue = append(r.queue, job{arrival: s.now, customer: customer})
	s.setQueueLen(len(r.queue))
	if customer < 0 {
		r.scheduleNextArrival()
	}
	switch s.state {
	case energy.Standby:
		s.setState(energy.PowerUp)
		s.cycles++
		r.scheduleAfter(s.cfg.PUD, r.powerUpDone)
	case energy.Idle:
		if r.pdt != nil && r.pdt.index >= 0 {
			heap.Remove(&r.events, r.pdt.index)
		}
		r.startService()
	}
}

func (r *refSim) powerUpDone() {
	if len(r.queue) > 0 {
		r.startService()
		return
	}
	r.becomeIdle()
}

func (r *refSim) startService() {
	r.acc.setState(energy.Active)
	r.scheduleAfter(r.acc.cfg.Service.Sample(r.rng), r.depart)
}

func (r *refSim) depart() {
	s := r.acc
	j := r.queue[0]
	r.queue = r.queue[1:]
	s.setQueueLen(len(r.queue))
	if s.now >= s.cfg.Warmup {
		s.served++
		s.latency.Add(s.now - j.arrival)
	}
	if s.cfg.Closed != nil {
		customer := j.customer
		r.scheduleAfter(s.cfg.Closed.Think.Sample(r.rng), func() { r.arrive(customer) })
	}
	if len(r.queue) > 0 {
		r.startService()
		return
	}
	r.becomeIdle()
}

func (r *refSim) becomeIdle() {
	s := r.acc
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
		r.pdt = r.scheduleAfter(s.cfg.PDT, func() { s.setState(energy.Standby) })
	}
}

// sameBits reports whether two Results agree field by field, comparing
// floats by their bits.
func sameBits(a, b *Result) bool {
	for i := range a.Fractions {
		if math.Float64bits(a.Fractions[i]) != math.Float64bits(b.Fractions[i]) {
			return false
		}
	}
	return a.JobsArrived == b.JobsArrived && a.JobsServed == b.JobsServed &&
		math.Float64bits(a.MeanJobs) == math.Float64bits(b.MeanJobs) &&
		math.Float64bits(a.MeanLatency) == math.Float64bits(b.MeanLatency) &&
		a.MaxQueue == b.MaxQueue && a.PowerCycles == b.PowerCycles
}

func sameTraceBits(a, b Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].State != b[i].State ||
			math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return false
		}
	}
	return true
}

// checkMatchesReference runs cfg through RunWithTrace and through
// referenceRun, each with a fresh Config from mk since open sources may
// be stateful, and requires bit-identical results and traces.
func checkMatchesReference(t *testing.T, mk func() Config) {
	t.Helper()
	got, gotTrace, err := RunWithTrace(mk())
	if err != nil {
		t.Fatal(err)
	}
	want, wantTrace := referenceRun(mk())
	if !sameBits(got, want) {
		t.Fatalf("Result differs from the reference loop:\n got %+v\nwant %+v", got, want)
	}
	if !sameTraceBits(gotTrace, wantTrace) {
		t.Fatalf("trace differs from the reference loop: %d vs %d segments", len(gotTrace), len(wantTrace))
	}
}

// TestEventLoopMatchesReference: the typed loop fires the same events in
// the same order as the closure-on-heap loop, so every Result field and
// trace segment is identical to the bit, including where events tie in
// time.
func TestEventLoopMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Config
	}{
		{"paper", func() Config { return paperConfig(0.5, 0.001) }},
		{"periodic-ties", func() Config {
			// Arrivals every 1 s, power-up 0.25 s, service 0.25 s and
			// PDT 0.5 s: each power-down timer falls due exactly when
			// the next arrival does, and the arrival, scheduled first,
			// must win.
			return Config{
				Arrivals: workload.NewPeriodic(1),
				Service:  dist.NewDeterministic(0.25),
				PDT:      0.5, PUD: 0.25,
				SimTime: 500, Warmup: 10, Seed: 2,
			}
		}},
		{"never-sleep", func() Config {
			c := paperConfig(0.5, 0.3)
			c.Policy = PolicyNeverSleep
			return c
		}},
		{"always-sleep", func() Config {
			c := paperConfig(0.5, 0.3)
			c.Policy = PolicyAlwaysSleep
			return c
		}},
		{"pdt-0", func() Config { return paperConfig(0, 0.3) }},
		{"pud-0", func() Config { return paperConfig(0.5, 0) }},
		{"mmpp2-h2", func() Config {
			c := paperConfig(0.2, 0.05)
			c.Arrivals = workload.NewMMPP2(0.5, 4, 0.1, 0.3)
			c.Service = dist.NewHyperExponential([]float64{0.7, 0.3}, []float64{20, 4})
			return c
		}},
		{"closed-3", func() Config {
			c := paperConfig(0.3, 0.01)
			c.Arrivals = nil
			c.Closed = &workload.Closed{Customers: 3, Think: dist.ExpMean(1)}
			return c
		}},
		{"closed-4-deterministic-think", func() Config {
			c := paperConfig(0.25, 0.125)
			c.Arrivals = nil
			c.Closed = &workload.Closed{Customers: 4, Think: dist.NewDeterministic(1)}
			c.Service = dist.NewDeterministic(0.25)
			return c
		}},
		{"trace-zero-gaps", func() Config {
			return Config{
				Arrivals: workload.NewTrace([]float64{1, 0, 0, 0.5, 0, 2, 0, 0, 0}),
				Service:  dist.NewDeterministic(0.125),
				PDT:      0.25, PUD: 0.125,
				SimTime: 10, Seed: 3,
			}
		}},
		{"pdt-1e4", func() Config { return paperConfig(1e4, 0.3) }},
		{"backlog", func() Config {
			// rho = 0.95: the backlog outgrows the queue's initial
			// capacity while it has wrapped around.
			c := paperConfig(0.5, 0.3)
			c.Service = dist.ExpMean(0.95)
			c.SimTime = 5000
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMatchesReference(t, tc.mk) })
	}
}

// FuzzEventLoopEquivalence draws service, think and arrival laws, the
// policy, PDT and PUD (zero included, and multiples of 1/8 that make
// events tie), the warm-up and a closed population, and requires the
// typed loop to match referenceRun bit for bit.
func FuzzEventLoopEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(0), uint8(4), uint8(2), uint8(8), uint8(0))
	f.Add(uint64(3), uint8(2), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(3), uint8(3), uint8(2), uint8(3), uint8(1), uint8(40), uint8(0))
	f.Add(uint64(5), uint8(4), uint8(4), uint8(0), uint8(0x82), uint8(0x81), uint8(0), uint8(0))
	f.Add(uint64(6), uint8(0), uint8(1), uint8(0), uint8(8), uint8(2), uint8(0), uint8(4))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(1), uint8(2), uint8(1), uint8(20), uint8(3))
	f.Add(uint64(8), uint8(5), uint8(5), uint8(0), uint8(0xff), uint8(0), uint8(5), uint8(2))
	// Deterministic service and periodic or deterministic-think arrivals
	// with PDT and PUD on the 1/8 s grid: events tie in time.
	f.Add(uint64(9), uint8(1), uint8(1), uint8(0), uint8(0x85), uint8(0x82), uint8(0), uint8(0))
	f.Add(uint64(10), uint8(1), uint8(1), uint8(0), uint8(0x81), uint8(0x81), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, svc, arr, policy, pdt, pud, warm, closed uint8) {
		mk := func() Config {
			c := Config{
				Service: fuzzDist(svc, 0.125),
				PDT:     fuzzDelay(pdt),
				PUD:     fuzzDelay(pud),
				Policy:  Policy(policy % 3),
				SimTime: 200,
				Warmup:  float64(warm % 64),
				Seed:    seed,
			}
			if n := int(closed % 8); n > 0 {
				c.Closed = &workload.Closed{Customers: n, Think: fuzzDist(arr, 1)}
			} else {
				c.Arrivals = fuzzSource(arr)
			}
			return c
		}
		checkMatchesReference(t, mk)
	})
}

// fuzzDist picks a distribution with roughly the given mean.
func fuzzDist(b uint8, mean float64) dist.Distribution {
	switch b % 6 {
	case 0:
		return dist.ExpMean(mean)
	case 1:
		return dist.NewDeterministic(mean)
	case 2:
		return dist.NewUniform(0, 2*mean)
	case 3:
		return dist.NewErlang(3, 3/mean)
	case 4:
		return dist.NewHyperExponential([]float64{0.8, 0.2}, []float64{1.6 / mean, 0.4 / mean})
	default:
		return dist.NewWeibull(0.7, mean)
	}
}

// fuzzSource picks an open arrival source of rate about 1/s.
func fuzzSource(b uint8) workload.Source {
	switch b % 6 {
	case 0:
		return workload.NewPoisson(1)
	case 1:
		return workload.NewPeriodic(1)
	case 2:
		return &workload.Periodic{Period: 0.5, Jitter: dist.ExpMean(0.5)}
	case 3:
		return workload.NewMMPP2(0.3, 3, 0.2, 0.4)
	case 4:
		return workload.NewTrace([]float64{0.5, 0, 0, 1, 0.25, 0, 3, 0, 0.125})
	default:
		return workload.NewPoisson(4)
	}
}

// fuzzDelay maps a byte to a PDT or PUD: zero, a multiple of 1/8 s up to
// 15.875 s when the top bit is set, or 1e4 at 0xff.
func fuzzDelay(b uint8) float64 {
	switch {
	case b == 0xff:
		return 1e4
	case b&0x80 != 0:
		return float64(b&0x7f) / 8
	default:
		return float64(b) * 0.0137
	}
}
