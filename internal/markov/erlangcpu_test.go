package markov

import (
	"math"
	"testing"

	"repro/internal/energy"
)

func TestErlangCPUValidation(t *testing.T) {
	bad := []ErlangCPU{
		{Lambda: 0, Mu: 1, K: 1},
		{Lambda: 1, Mu: 1, K: 1},                    // rho = 1
		{Lambda: 1, Mu: 2, K: 0},                    // no phases
		{Lambda: 1, Mu: 2, K: 1, T: -1},             // negative T
		{Lambda: 1, Mu: 2, K: 1, T: 0.5, D: -0.001}, // negative D
	}
	for i, e := range bad {
		if _, err := e.Solve(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, e)
		}
	}
}

func TestErlangCPUFractionsSumToOne(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		e := ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 0.3, K: k}
		res, err := e.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Fractions.Validate(1e-8); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
	}
}

// TestErlangK1MatchesExponentializedModel: with K=1 both delays are plain
// exponentials; the utilization must still be exactly rho because the work
// arriving per unit time is unchanged by the power-down policy.
func TestErlangCPUUtilizationIsRho(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		e := ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 0.3, K: k}
		res, err := e.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Fractions[energy.Active]-0.1) > 1e-6 {
			t.Fatalf("K=%d: utilization = %v, want 0.1", k, res.Fractions[energy.Active])
		}
	}
}

// TestErlangConvergesToSupVarAtSmallD: for small D the supplementary
// variable solution is essentially exact, so the Erlang chain with large K
// must approach it.
func TestErlangConvergesToSupVarAtSmallD(t *testing.T) {
	m := CPUModel{Lambda: 1, Mu: 10, T: 0.5, D: 0.001}
	want := m.StateProbs()
	e := ErlangCPU{Lambda: m.Lambda, Mu: m.Mu, T: m.T, D: m.D, K: 32}
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range energy.States {
		if math.Abs(res.Fractions[s]-want[s]) > 0.01 {
			t.Fatalf("state %s: erlang %v vs supvar %v", s, res.Fractions[s], want[s])
		}
	}
}

// TestErlangErrorShrinksWithK: the distance between consecutive K solutions
// shrinks, demonstrating convergence to the deterministic-delay process.
func TestErlangErrorShrinksWithK(t *testing.T) {
	cfg := func(k int) ErlangCPU {
		return ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 2, K: k, QueueCap: 60}
	}
	var prev *ErlangCPUResult
	var lastDelta float64 = math.Inf(1)
	for _, k := range []int{1, 4, 16, 64} {
		res, err := cfg(k).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			delta := 0.0
			for _, s := range energy.States {
				delta += math.Abs(res.Fractions[s] - prev.Fractions[s])
			}
			if delta > lastDelta+1e-9 {
				t.Fatalf("K=%d: successive delta %v did not shrink (prev %v)", k, delta, lastDelta)
			}
			lastDelta = delta
		}
		prev = res
	}
	if lastDelta > 0.05 {
		t.Fatalf("final successive delta %v too large; no convergence", lastDelta)
	}
}

func TestErlangCPUZeroDelays(t *testing.T) {
	// T = 0, D = 0 collapses to: standby when empty, active otherwise.
	e := ErlangCPU{Lambda: 1, Mu: 10, T: 0, D: 0, K: 4}
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fractions[energy.Standby]-0.9) > 1e-6 {
		t.Fatalf("standby = %v, want 0.9", res.Fractions[energy.Standby])
	}
	if math.Abs(res.Fractions[energy.Active]-0.1) > 1e-6 {
		t.Fatalf("active = %v, want 0.1", res.Fractions[energy.Active])
	}
	if res.Fractions[energy.Idle] != 0 || res.Fractions[energy.PowerUp] != 0 {
		t.Fatalf("idle/powerup = %v/%v, want 0/0", res.Fractions[energy.Idle], res.Fractions[energy.PowerUp])
	}
	// Mean jobs matches M/M/1 exactly in this limit.
	if math.Abs(res.MeanJobs-0.1/0.9) > 1e-6 {
		t.Fatalf("L = %v, want %v", res.MeanJobs, 0.1/0.9)
	}
}

func TestErlangCPUEnergy(t *testing.T) {
	e := ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 0.001, K: 8}
	res, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	eng := res.EnergyJoulesOver(energy.PXA271, 1000)
	// Must land between all-standby (17 J) and all-active (193 J).
	if eng < 17 || eng > 193 {
		t.Fatalf("energy = %v J, outside physical bounds", eng)
	}
}

func BenchmarkErlangCPUSolveK8(b *testing.B) {
	e := ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 0.3, K: 8, QueueCap: 40}
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErlangCPUSolveK64 is X-1's costliest solve: the 3965-state chain
// at the CLI's longest power-up delay, which runs the power iteration to its
// iteration cap.
func BenchmarkErlangCPUSolveK64(b *testing.B) {
	e := ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 10, K: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
