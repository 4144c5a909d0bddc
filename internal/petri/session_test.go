package petri_test

// Tests for the incremental Session API: driven to completion it must be
// bit-identical to the closed-loop Simulate — same RNG draws, same event
// order, same accumulator arithmetic — and Inject must move tokens with
// the same enabling semantics as arc-driven token flow.

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/petri"
)

// sameSimResult compares two results for exact equality (no tolerance:
// equivalence here means identical trajectories and arithmetic).
func sameSimResult(t *testing.T, name string, want, got *petri.SimResult) {
	t.Helper()
	if want.Time != got.Time || want.Deadlocked != got.Deadlocked {
		t.Fatalf("%s: Time/Deadlocked mismatch: want %v/%v, got %v/%v",
			name, want.Time, want.Deadlocked, got.Time, got.Deadlocked)
	}
	for i := range want.PlaceAvg {
		if want.PlaceAvg[i] != got.PlaceAvg[i] || want.PlaceNonEmpty[i] != got.PlaceNonEmpty[i] {
			t.Fatalf("%s: place %d stats mismatch: want %v/%v, got %v/%v", name, i,
				want.PlaceAvg[i], want.PlaceNonEmpty[i], got.PlaceAvg[i], got.PlaceNonEmpty[i])
		}
		if want.FinalMarking[i] != got.FinalMarking[i] {
			t.Fatalf("%s: final marking of place %d: want %d, got %d",
				name, i, want.FinalMarking[i], got.FinalMarking[i])
		}
	}
	for i := range want.Firings {
		if want.Firings[i] != got.Firings[i] || want.Throughput[i] != got.Throughput[i] {
			t.Fatalf("%s: transition %d firings mismatch: want %d/%v, got %d/%v", name, i,
				want.Firings[i], want.Throughput[i], got.Firings[i], got.Throughput[i])
		}
	}
}

// TestSessionMatchesSimulate drives a Session over the whole net zoo in
// three ways — Finish alone, event-by-event via NextEventTime, and an
// arbitrary fixed-dt grid oblivious to the event times — and requires the
// result to be bit-identical to the closed-loop engine in every case.
func TestSessionMatchesSimulate(t *testing.T) {
	ctx := context.Background()
	for name, n := range equivNets() {
		c, err := petri.Compile(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, seed := range []uint64{1, 42} {
			for _, mem := range []petri.MemoryPolicy{petri.RaceEnable, petri.RaceAge} {
				opt := petri.SimOptions{Seed: seed, Warmup: 25, Duration: 250, Memory: mem}
				want, err := c.Simulate(opt)
				if err != nil {
					t.Fatalf("%s: Simulate: %v", name, err)
				}
				drivers := map[string]func(s *petri.Session) error{
					"finish-only": func(s *petri.Session) error { return nil },
					"event-by-event": func(s *petri.Session) error {
						for {
							next := s.NextEventTime()
							if math.IsInf(next, 1) || next > s.Horizon() {
								return nil
							}
							if err := s.StepTo(next); err != nil {
								return err
							}
						}
					},
					"fixed-grid": func(s *petri.Session) error {
						for at := 7.3; at < s.Horizon(); at += 7.3 {
							if err := s.StepTo(at); err != nil {
								return err
							}
						}
						return nil
					},
				}
				for dname, drive := range drivers {
					s, err := c.OpenSession(ctx, opt)
					if err != nil {
						t.Fatalf("%s/%s: OpenSession: %v", name, dname, err)
					}
					if err := drive(s); err != nil {
						t.Fatalf("%s/%s: drive: %v", name, dname, err)
					}
					got, err := s.Finish()
					if err != nil {
						t.Fatalf("%s/%s: Finish: %v", name, dname, err)
					}
					sameSimResult(t, name+"/"+dname, want, got)

					// The lean ending: step to the horizon, read the
					// counters and averages, and Close.
					s, err = c.OpenSession(ctx, opt)
					if err != nil {
						t.Fatalf("%s/%s: OpenSession: %v", name, dname, err)
					}
					if err := drive(s); err != nil {
						t.Fatalf("%s/%s: drive: %v", name, dname, err)
					}
					if err := s.StepTo(s.Horizon()); err != nil {
						t.Fatalf("%s/%s: StepTo(Horizon): %v", name, dname, err)
					}
					for p, avg := range want.PlaceAvg {
						if got := s.PlaceAvg(petri.PlaceID(p)); math.Float64bits(got) != math.Float64bits(avg) {
							t.Fatalf("%s/%s: PlaceAvg(%d) = %v, Simulate %v", name, dname, p, got, avg)
						}
					}
					for tr, fired := range want.Firings {
						if got := s.Firings(petri.TransitionID(tr)); got != fired {
							t.Fatalf("%s/%s: Firings(%d) = %d, Simulate %d", name, dname, tr, got, fired)
						}
					}
					s.Close()
				}
			}
		}
	}
}

// sinkServerNet is a net with no internal token source: Queue feeds a
// single-server exponential Serve into Done. Without injections it is
// dead from time 0.
func sinkServerNet() (*petri.Net, petri.PlaceID, petri.PlaceID) {
	n := petri.NewNet("sink")
	q := n.AddPlace("Queue")
	done := n.AddPlace("Done")
	serve := n.AddTimed("Serve", dist.NewExponential(5))
	n.Input(serve, q, 1)
	n.Output(serve, done, 1)
	return n, q, done
}

func TestSessionInjectDrivesDeadNet(t *testing.T) {
	n, q, done := sinkServerNet()
	serve, _ := n.TransitionByName("Serve")
	c, err := petri.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 3, Duration: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next := s.NextEventTime(); !math.IsInf(next, 1) {
		t.Fatalf("dead net has scheduled event at %v", next)
	}
	if err := s.Inject(petri.Injection{Place: q, Tokens: 3}); err != nil {
		t.Fatal(err)
	}
	if next := s.NextEventTime(); math.IsInf(next, 1) {
		t.Fatal("injection did not arm the server")
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Firings[serve] != 3 {
		t.Fatalf("Serve fired %d times, want 3", res.Firings[serve])
	}
	if res.FinalMarking[done] != 3 || res.FinalMarking[q] != 0 {
		t.Fatalf("final marking Done=%d Queue=%d, want 3/0", res.FinalMarking[done], res.FinalMarking[q])
	}
	if !res.Deadlocked {
		t.Fatal("drained net should report deadlock")
	}
}

// TestSessionInjectResolvesImmediates: tokens injected into a place feeding
// an enabled immediate must be moved on before Inject returns (the marking
// left behind is tangible, like after any internal event).
func TestSessionInjectResolvesImmediates(t *testing.T) {
	n := petri.NewNet("imm")
	a := n.AddPlace("A")
	b := n.AddPlace("B")
	move := n.AddImmediate("Move", 1)
	n.Input(move, a, 1)
	n.Output(move, b, 1)
	// A timed self-loop keeps the net from being trivially dead.
	tick := n.AddPlaceInit("Tick", 1)
	beat := n.AddTimed("Beat", dist.NewDeterministic(1))
	n.Input(beat, tick, 1)
	n.Output(beat, tick, 1)

	c, err := petri.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Inject(petri.Injection{Place: a, Tokens: 4}); err != nil {
		t.Fatal(err)
	}
	if got := s.Tokens(a); got != 0 {
		t.Fatalf("A holds %d tokens after Inject, want 0 (immediate must drain it)", got)
	}
	if got := s.Tokens(b); got != 4 {
		t.Fatalf("B holds %d tokens, want 4", got)
	}
}

func TestSessionInjectValidation(t *testing.T) {
	n, q, _ := sinkServerNet()
	c, err := petri.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Inject(petri.Injection{Place: petri.PlaceID(99), Tokens: 1}); err == nil {
		t.Fatal("unknown place accepted")
	}
	if err := s.Inject(petri.Injection{Place: q, Tokens: -1}); err == nil {
		t.Fatal("negative marking accepted")
	}
	// Split across two injections of the same place: the combined result
	// must be validated, not each delta in isolation.
	if err := s.Inject(petri.Injection{Place: q, Tokens: 1}, petri.Injection{Place: q, Tokens: -2}); err == nil {
		t.Fatal("combined negative marking accepted")
	}
	// A rejected Inject leaves the session untouched and usable.
	if got := s.Tokens(q); got != 0 {
		t.Fatalf("Queue holds %d tokens after rejected injections, want 0", got)
	}
	if err := s.Inject(petri.Injection{Place: q, Tokens: 2}, petri.Injection{Place: q, Tokens: -1}); err != nil {
		t.Fatalf("valid combined injection rejected: %v", err)
	}
	if got := s.Tokens(q); got != 1 {
		t.Fatalf("Queue holds %d tokens, want 1", got)
	}
}

// TestSessionInjectMatchesArrivalNet: a deterministic system driven by
// injections must reproduce the trajectory of the same system driven by an
// internal arrival transition firing at the same instants.
func TestSessionInjectMatchesArrivalNet(t *testing.T) {
	build := func(withSource bool) *petri.Net {
		n := petri.NewNet("det")
		q := n.AddPlace("Queue")
		idle := n.AddPlaceInit("Idle", 1)
		busy := n.AddPlace("Busy")
		if withSource {
			arrive := n.AddTimed("Arrive", dist.NewDeterministic(1))
			n.Output(arrive, q, 1)
		}
		start := n.AddImmediate("Start", 1)
		n.Input(start, q, 1)
		n.Input(start, idle, 1)
		n.Output(start, busy, 1)
		serve := n.AddTimed("Serve", dist.NewDeterministic(0.3))
		n.Input(serve, busy, 1)
		n.Output(serve, idle, 1)
		return n
	}
	opt := petri.SimOptions{Seed: 9, Duration: 10}

	ref := build(true)
	want, err := petri.Simulate(ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	refServe, _ := ref.TransitionByName("Serve")

	inj := build(false)
	q, _ := inj.PlaceByName("Queue")
	serve, _ := inj.TransitionByName("Serve")
	c, err := petri.Compile(inj)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.OpenSession(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the deterministic arrivals at t = 1, 2, ..., 10.
	for i := 1; i <= 10; i++ {
		if err := s.StepTo(float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(petri.Injection{Place: q, Tokens: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want.Firings[refServe] != got.Firings[serve] {
		t.Fatalf("Serve fired %d times under injection, want %d", got.Firings[serve], want.Firings[refServe])
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	n, _, _ := sinkServerNet()
	c, err := petri.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	opt := petri.SimOptions{Seed: 1, Duration: 10}

	if _, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 1, Duration: 10, Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
	if _, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 1}); err == nil {
		t.Fatal("zero duration accepted")
	}

	s, err := c.OpenSession(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepTo(5); err != nil {
		t.Fatal(err)
	}
	if err := s.StepTo(4); err == nil {
		t.Fatal("time moved backwards")
	}
	if err := s.StepTo(11); err == nil {
		t.Fatal("stepped beyond horizon")
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("second Finish succeeded")
	}
	if err := s.StepTo(6); err == nil {
		t.Fatal("StepTo after Finish succeeded")
	}
	if err := s.Inject(); err == nil {
		t.Fatal("Inject after Finish succeeded")
	}
	if !math.IsNaN(s.Now()) || !math.IsNaN(s.Horizon()) || !math.IsNaN(s.NextEventTime()) || !math.IsNaN(s.PlaceAvg(0)) {
		t.Fatal("finished session should report NaN times and averages")
	}
	s.Close() // no-op after Finish

	// Close without Finish is allowed and idempotent.
	s2, err := c.OpenSession(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s2.Close()
	if _, err := s2.Finish(); err == nil {
		t.Fatal("Finish after Close succeeded")
	}

	// PlaceAvg has no value before the warmup ends or for an unknown place.
	s3, err := c.OpenSession(context.Background(), petri.SimOptions{Seed: 1, Warmup: 5, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !math.IsNaN(s3.PlaceAvg(0)) {
		t.Fatal("PlaceAvg answered during warmup")
	}
	if err := s3.StepTo(6); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s3.PlaceAvg(0)) || !math.IsNaN(s3.PlaceAvg(-1)) || !math.IsNaN(s3.PlaceAvg(petri.PlaceID(len(n.Places)))) {
		t.Fatal("PlaceAvg after warmup: want a value for a known place and NaN for unknown ones")
	}
}
