package petri

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// mm1Net builds an open M/M/1 queue as a Petri net: a source transition
// Arrive (exp rate lambda) deposits tokens into Queue; Serve (exp rate mu)
// consumes them one at a time through a single-server structure.
func mm1Net(lambda, mu float64) *Net {
	n := NewNet("mm1")
	queue := n.AddPlace("Queue")
	server := n.AddPlaceInit("ServerIdle", 1)
	busy := n.AddPlace("ServerBusy")
	arrive := n.AddExponential("Arrive", lambda)
	n.Output(arrive, queue, 1)
	start := n.AddImmediate("Start", 1)
	n.Input(start, queue, 1)
	n.Input(start, server, 1)
	n.Output(start, busy, 1)
	serve := n.AddExponential("Serve", mu)
	n.Input(serve, busy, 1)
	n.Output(serve, server, 1)
	return n
}

func TestSimulateMM1Utilization(t *testing.T) {
	const lambda, mu = 1.0, 10.0 // rho = 0.1, the paper's operating point
	n := mm1Net(lambda, mu)
	res, err := Simulate(n, SimOptions{Seed: 1, Warmup: 100, Duration: 20000})
	if err != nil {
		t.Fatal(err)
	}
	busy := res.PlaceAvgByName(n, "ServerBusy")
	if math.Abs(busy-0.1) > 0.01 {
		t.Fatalf("M/M/1 utilization = %v, want ~0.1", busy)
	}
	// Mean number in system = rho/(1-rho) = 1/9; here Queue holds waiting
	// jobs and ServerBusy the one in service.
	l := res.PlaceAvgByName(n, "Queue") + busy
	if math.Abs(l-1.0/9.0) > 0.02 {
		t.Fatalf("M/M/1 mean jobs = %v, want ~%v", l, 1.0/9.0)
	}
}

func TestSimulateMM1Throughput(t *testing.T) {
	n := mm1Net(2, 5)
	res, err := Simulate(n, SimOptions{Seed: 2, Warmup: 100, Duration: 20000})
	if err != nil {
		t.Fatal(err)
	}
	arrID, _ := n.TransitionByName("Arrive")
	srvID, _ := n.TransitionByName("Serve")
	if math.Abs(res.Throughput[arrID]-2) > 0.1 {
		t.Fatalf("arrival throughput = %v, want ~2", res.Throughput[arrID])
	}
	// Flow balance: served rate equals arrival rate in steady state.
	if math.Abs(res.Throughput[srvID]-res.Throughput[arrID]) > 0.1 {
		t.Fatalf("service throughput %v != arrival throughput %v",
			res.Throughput[srvID], res.Throughput[arrID])
	}
}

func TestSimulateDeterministicCycle(t *testing.T) {
	// A token alternates: 1 time unit in A, 3 in B => averages 0.25/0.75.
	n := NewNet("cycle")
	a := n.AddPlaceInit("A", 1)
	b := n.AddPlace("B")
	ab := n.AddDeterministic("AB", 1)
	n.Input(ab, a, 1)
	n.Output(ab, b, 1)
	ba := n.AddDeterministic("BA", 3)
	n.Input(ba, b, 1)
	n.Output(ba, a, 1)
	res, err := Simulate(n, SimOptions{Seed: 3, Duration: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PlaceAvg[a]-0.25) > 1e-9 {
		t.Fatalf("A average = %v, want exactly 0.25 (deterministic net)", res.PlaceAvg[a])
	}
	if math.Abs(res.PlaceAvg[b]-0.75) > 1e-9 {
		t.Fatalf("B average = %v, want exactly 0.75", res.PlaceAvg[b])
	}
}

func TestRaceEnableVsRaceAge(t *testing.T) {
	// Work (Det 5) is interrupted by an inhibitor token during [2, 4].
	// Race-enable restarts the delay at t=4 (fires at 9); race-age resumes
	// the remaining 3 units (fires at 7). Observing the Done place at
	// horizon 8 separates the two policies.
	build := func() *Net {
		n := NewNet("preempt")
		run := n.AddPlaceInit("Run", 1)
		done := n.AddPlace("Done")
		pause := n.AddPlace("Pause")
		aux := n.AddPlaceInit("Aux", 1)
		sink := n.AddPlace("Sink")
		work := n.AddDeterministic("Work", 5)
		n.Input(work, run, 1)
		n.Output(work, done, 1)
		n.Inhibitor(work, pause, 1)
		goT := n.AddDeterministic("Go", 2)
		n.Input(goT, aux, 1)
		n.Output(goT, pause, 1)
		back := n.AddDeterministic("Back", 2)
		n.Input(back, pause, 1)
		n.Output(back, sink, 1)
		return n
	}
	nEnable := build()
	resEnable, err := Simulate(nEnable, SimOptions{Seed: 1, Duration: 8, Memory: RaceEnable})
	if err != nil {
		t.Fatal(err)
	}
	if got := resEnable.FinalMarking[1]; got != 0 {
		t.Fatalf("race-enable: Done = %d at t=8, want 0 (restarted timer fires at 9)", got)
	}
	nAge := build()
	resAge, err := Simulate(nAge, SimOptions{Seed: 1, Duration: 8, Memory: RaceAge})
	if err != nil {
		t.Fatal(err)
	}
	if got := resAge.FinalMarking[1]; got != 1 {
		t.Fatalf("race-age: Done = %d at t=8, want 1 (resumed timer fires at 7)", got)
	}
}

func TestWarmupExcluded(t *testing.T) {
	// Token moves A -> B at t=1; with warmup 2 the measured period sees
	// only B occupied.
	n, a, b, _ := twoPlaceNet()
	res, err := Simulate(n, SimOptions{Seed: 1, Warmup: 2, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlaceAvg[a] != 0 || res.PlaceAvg[b] != 1 {
		t.Fatalf("warmup not excluded: A=%v B=%v", res.PlaceAvg[a], res.PlaceAvg[b])
	}
	// Firings during warmup must not count.
	trID, _ := n.TransitionByName("T")
	if res.Firings[trID] != 0 {
		t.Fatalf("warmup firing counted: %d", res.Firings[trID])
	}
}

func TestDeadlockAbsorbs(t *testing.T) {
	n, a, b, _ := twoPlaceNet()
	res, err := Simulate(n, SimOptions{Seed: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("one-shot net should report deadlock")
	}
	if math.Abs(res.PlaceAvg[a]-0.1) > 1e-9 {
		t.Fatalf("A average = %v, want 0.1 (occupied 1 of 10 time units)", res.PlaceAvg[a])
	}
	if math.Abs(res.PlaceAvg[b]-0.9) > 1e-9 {
		t.Fatalf("B average = %v, want 0.9", res.PlaceAvg[b])
	}
}

func TestSimulateDeterminism(t *testing.T) {
	n1 := mm1Net(1, 3)
	n2 := mm1Net(1, 3)
	r1, err := Simulate(n1, SimOptions{Seed: 42, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(n2, SimOptions{Seed: 42, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.PlaceAvg {
		if r1.PlaceAvg[i] != r2.PlaceAvg[i] {
			t.Fatalf("same seed produced different place averages: %v vs %v", r1.PlaceAvg, r2.PlaceAvg)
		}
	}
	r3, err := Simulate(mm1Net(1, 3), SimOptions{Seed: 43, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.PlaceAvg {
		if r1.PlaceAvg[i] != r3.PlaceAvg[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical results")
	}
}

func TestImmediateWeightsSplitFlow(t *testing.T) {
	// Tokens arrive at C and branch through immediates with weights 1:3.
	n := NewNet("branch")
	src := n.AddPlaceInit("Src", 1)
	c := n.AddPlace("C")
	b1 := n.AddPlace("B1")
	b2 := n.AddPlace("B2")
	arr := n.AddExponential("Arr", 10)
	n.Input(arr, src, 1)
	n.Output(arr, c, 1)
	n.Output(arr, src, 1)
	t1 := n.AddImmediate("T1", 1)
	n.Input(t1, c, 1)
	n.Output(t1, b1, 1)
	t2 := n.AddImmediate("T2", 1)
	n.SetWeight(t2, 3)
	n.Input(t2, c, 1)
	n.Output(t2, b2, 1)
	res, err := Simulate(n, SimOptions{Seed: 5, Duration: 5000})
	if err != nil {
		t.Fatal(err)
	}
	t1ID, _ := n.TransitionByName("T1")
	t2ID, _ := n.TransitionByName("T2")
	total := float64(res.Firings[t1ID] + res.Firings[t2ID])
	frac := float64(res.Firings[t2ID]) / total
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("weight-3 branch took %v of flow, want ~0.75", frac)
	}
}

func TestImmediatePriorityWinsConflict(t *testing.T) {
	// Two immediates compete for the same token; the higher priority one
	// must always win.
	n := NewNet("prio")
	src := n.AddPlaceInit("Src", 1)
	c := n.AddPlace("C")
	hi := n.AddPlace("Hi")
	lo := n.AddPlace("Lo")
	arr := n.AddExponential("Arr", 5)
	n.Input(arr, src, 1)
	n.Output(arr, c, 1)
	n.Output(arr, src, 1)
	thi := n.AddImmediate("THi", 9)
	n.Input(thi, c, 1)
	n.Output(thi, hi, 1)
	tlo := n.AddImmediate("TLo", 1)
	n.Input(tlo, c, 1)
	n.Output(tlo, lo, 1)
	res, err := Simulate(n, SimOptions{Seed: 6, Duration: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tloID, _ := n.TransitionByName("TLo")
	if res.Firings[tloID] != 0 {
		t.Fatalf("low-priority transition fired %d times against higher priority", res.Firings[tloID])
	}
}

func TestImmediateLivelockDetected(t *testing.T) {
	n := NewNet("livelock")
	a := n.AddPlaceInit("A", 1)
	b := n.AddPlace("B")
	t1 := n.AddImmediate("T1", 1)
	n.Input(t1, a, 1)
	n.Output(t1, b, 1)
	t2 := n.AddImmediate("T2", 1)
	n.Input(t2, b, 1)
	n.Output(t2, a, 1)
	_, err := Simulate(n, SimOptions{Seed: 1, Duration: 10, MaxVanishingChain: 100})
	if err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("want livelock error, got %v", err)
	}
}

func TestInitialVanishingResolved(t *testing.T) {
	// An immediate enabled at t=0 fires before statistics start.
	n := NewNet("init")
	a := n.AddPlaceInit("A", 1)
	b := n.AddPlace("B")
	t1 := n.AddImmediate("T1", 1)
	n.Input(t1, a, 1)
	n.Output(t1, b, 1)
	sink := n.AddPlace("Sink")
	slow := n.AddDeterministic("Slow", 100)
	n.Input(slow, b, 1)
	n.Output(slow, sink, 1)
	res, err := Simulate(n, SimOptions{Seed: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlaceAvg[a] != 0 {
		t.Fatalf("A average = %v, want 0 (vanished at t=0)", res.PlaceAvg[a])
	}
	if res.PlaceAvg[b] != 1 {
		t.Fatalf("B average = %v, want 1", res.PlaceAvg[b])
	}
}

func TestPlaceNonEmptyFraction(t *testing.T) {
	// Token spends 1 of every 4 time units in A; A holds 1 token then, so
	// non-empty fraction equals the average.
	n := NewNet("cycle")
	a := n.AddPlaceInit("A", 1)
	b := n.AddPlace("B")
	ab := n.AddDeterministic("AB", 1)
	n.Input(ab, a, 1)
	n.Output(ab, b, 1)
	ba := n.AddDeterministic("BA", 3)
	n.Input(ba, b, 1)
	n.Output(ba, a, 1)
	res, err := Simulate(n, SimOptions{Seed: 1, Duration: 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PlaceNonEmpty[a]-0.25) > 1e-9 {
		t.Fatalf("A non-empty fraction = %v, want 0.25", res.PlaceNonEmpty[a])
	}
}

func TestSimOptionsValidation(t *testing.T) {
	n, _, _, _ := twoPlaceNet()
	if _, err := Simulate(n, SimOptions{Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Simulate(n, SimOptions{Duration: 1, Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

func TestSimulateInvalidNet(t *testing.T) {
	n := NewNet("bad")
	n.AddPlace("A")
	if _, err := Simulate(n, SimOptions{Duration: 1}); err == nil {
		t.Fatal("invalid net accepted")
	}
}

func TestReplications(t *testing.T) {
	n := mm1Net(1, 5)
	rep, err := SimulateReplications(n, SimOptions{Seed: 7, Warmup: 50, Duration: 2000}, 20)
	if err != nil {
		t.Fatal(err)
	}
	mean, ci := rep.MeanTokens(n, "ServerBusy")
	if ci <= 0 {
		t.Fatal("replication CI should be positive")
	}
	if math.Abs(mean-0.2) > 3*ci+0.01 {
		t.Fatalf("utilization = %v ± %v, want ~0.2", mean, ci)
	}
	if rep.Replications != 20 {
		t.Fatalf("Replications = %d", rep.Replications)
	}
}

func TestReplicationsValidation(t *testing.T) {
	n := mm1Net(1, 5)
	if _, err := SimulateReplications(n, SimOptions{Duration: 1}, 0); err == nil {
		t.Fatal("zero replications accepted")
	}
}

// TestReplicationsRunOnCallerGoroutine: replications run one after another
// on the calling goroutine, so a guard may mutate unsynchronized state. The
// guard counts its calls, and the count of a replication set must equal the
// sum over the same replications run one at a time; under -race any
// concurrent fan-out is reported as a race on the counter. The aggregate
// must also equal the in-order fold of the single runs, bit for bit.
func TestReplicationsRunOnCallerGoroutine(t *testing.T) {
	const reps = 12
	calls := 0
	n := mm1Net(1, 5)
	serve, _ := n.TransitionByName("Serve")
	n.SetGuard(serve, func(Marking) bool { calls++; return true })
	c, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(base uint64, rep int) uint64 { return base + uint64(rep)*0x9e3779b97f4a7c15 }

	opt := SimOptions{Seed: 7, Warmup: 20, Duration: 500}
	want := make([]stats.Summary, len(n.Places))
	wantCalls := 0
	for rep := 0; rep < reps; rep++ {
		o := opt
		o.Seed = seed(opt.Seed, rep)
		calls = 0
		res, err := c.Simulate(o)
		if err != nil {
			t.Fatal(err)
		}
		wantCalls += calls
		for i := range want {
			want[i].Add(res.PlaceAvg[i])
		}
	}
	if wantCalls == 0 {
		t.Fatal("guard never evaluated")
	}
	calls = 0
	got, err := c.SimulateReplications(opt, reps)
	if err != nil {
		t.Fatal(err)
	}
	if calls != wantCalls {
		t.Fatalf("SimulateReplications: guard ran %d times, want %d", calls, wantCalls)
	}
	for i := range want {
		if got.PlaceAvg[i].Mean() != want[i].Mean() || got.PlaceAvg[i].Var() != want[i].Var() {
			t.Fatalf("place %d: replication aggregate differs from the in-order fold", i)
		}
	}

	topt := TransientOptions{Seed: 3, Horizon: 50, Step: 5, Replications: reps}
	wantCalls = 0
	for rep := 0; rep < reps; rep++ {
		o := topt
		o.Seed, o.Replications = seed(topt.Seed, rep), 1
		calls = 0
		if _, err := c.SimulateTransient(o); err != nil {
			t.Fatal(err)
		}
		wantCalls += calls
	}
	calls = 0
	if _, err := c.SimulateTransient(topt); err != nil {
		t.Fatal(err)
	}
	if calls != wantCalls {
		t.Fatalf("SimulateTransient: guard ran %d times, want %d", calls, wantCalls)
	}
}

func TestMemoryPolicyString(t *testing.T) {
	if RaceEnable.String() != "race-enable" || RaceAge.String() != "race-age" {
		t.Fatal("MemoryPolicy.String wrong")
	}
}

func BenchmarkSimulateMM1(b *testing.B) {
	n := mm1Net(1, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(n, SimOptions{Seed: uint64(i), Duration: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// poolStationsNet builds a net with 20 timed transitions — above
// linearSchedulerMax, so it compiles to the heap scheduler by default — in
// which ten arrival/service station pairs contend for a 3-token resource
// pool, churning the schedule with constant enable/disable flips.
func poolStationsNet() *Net {
	n := NewNet("pool-stations")
	pool := n.AddPlaceInit("Pool", 3)
	for i := 0; i < 10; i++ {
		queue := n.AddPlace(fmt.Sprintf("Queue%d", i))
		busy := n.AddPlace(fmt.Sprintf("Busy%d", i))
		arrive := n.AddExponential(fmt.Sprintf("Arrive%d", i), 1+0.1*float64(i))
		n.Output(arrive, queue, 1)
		start := n.AddImmediate(fmt.Sprintf("Start%d", i), 1)
		n.Input(start, queue, 1)
		n.Input(start, pool, 1)
		n.Output(start, busy, 1)
		serve := n.AddExponential(fmt.Sprintf("Serve%d", i), 2+0.2*float64(i))
		n.Input(serve, busy, 1)
		n.Output(serve, pool, 1)
	}
	return n
}

// TestLinearSchedulerMatchesHeap forces both scheduler implementations over
// the same compiled nets and seeds and requires bit-identical results: the
// linear fireAt scan and the 4-ary heap must pop the exact same (fireAt, id)
// sequence. Covered in both directions — a small net (linear by default)
// forced onto the heap, and a 20-timer net (heap by default) forced linear.
func TestLinearSchedulerMatchesHeap(t *testing.T) {
	nets := map[string]*Net{
		"mm1":   mm1Net(2, 5),
		"pool":  poolStationsNet(),
		"batch": batchAdmitNet(8),
	}
	for name, n := range nets {
		c, err := Compile(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			opt := SimOptions{Seed: seed, Warmup: 5, Duration: 500}
			run := func(linear bool) *SimResult {
				e := newEngine(c, nil, opt)
				e.linear = linear
				res, err := e.run()
				if err != nil {
					t.Fatalf("%s seed %d linear=%v: %v", name, seed, linear, err)
				}
				return res
			}
			heap, lin := run(false), run(true)
			if !reflect.DeepEqual(heap, lin) {
				t.Errorf("%s seed %d: linear and heap schedulers diverge:\nheap   %+v\nlinear %+v", name, seed, heap, lin)
			}
		}
	}
}
