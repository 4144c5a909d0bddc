package markov

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/energy"
)

func TestErlangCPUValidation(t *testing.T) {
	bad := []ErlangCPU{
		{Lambda: 0, Mu: 1, K: 1},
		{Lambda: 1, Mu: 1, K: 1},                          // rho = 1
		{Lambda: 1, Mu: 2, K: 0},                          // no phases
		{Lambda: 1, Mu: 2, K: 1, T: -1},                   // negative T
		{Lambda: 1, Mu: 2, K: 1, T: 0.5, D: -0.001},       // negative D
		{Lambda: 1, Mu: 2, K: 1, T: math.NaN()},           // NaN T
		{Lambda: 1, Mu: math.Inf(1), K: 1},                // infinite rate
		{Lambda: 1, Mu: 2, K: 64, D: 5e-324},              // phase rate overflows
		{Lambda: 1, Mu: 2, K: 1, D: math.Inf(1)},          // infinite D
		{Lambda: 1, Mu: 2, K: 1, QueueCap: -1},            // negative queue cap
		{Lambda: 1, Mu: 2, K: 1 << 20, QueueCap: 1 << 20}, // chain too large
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

// stringKeyedErlangChain is the construction ErlangCPU used before its
// slot-indexed state table: every state named with fmt.Sprintf and
// numbered by NewCTMC in order of first appearance. It stays as the oracle
// the table must reproduce bit for bit.
func stringKeyedErlangChain(e ErlangCPU, qcap int) *CTMC {
	c := NewCTMC()
	standby := "standby"
	idle := func(j int) string { return fmt.Sprintf("idle/%d", j) }
	up := func(j, n int) string { return fmt.Sprintf("up/%d/%d", j, n) }
	active := func(n int) string { return fmt.Sprintf("act/%d", n) }
	hasPowerUp, hasIdle := e.D > 0, e.T > 0
	if hasPowerUp {
		c.AddRate(standby, up(1, 1), e.Lambda)
	} else {
		c.AddRate(standby, active(1), e.Lambda)
	}
	if hasPowerUp {
		phD := float64(e.K) / e.D
		for j := 1; j <= e.K; j++ {
			for n := 1; n <= qcap; n++ {
				if n < qcap {
					c.AddRate(up(j, n), up(j, n+1), e.Lambda)
				}
				next := active(n)
				if j < e.K {
					next = up(j+1, n)
				}
				c.AddRate(up(j, n), next, phD)
			}
		}
	}
	afterLastJob := standby
	if hasIdle {
		afterLastJob = idle(1)
	}
	for n := 1; n <= qcap; n++ {
		if n < qcap {
			c.AddRate(active(n), active(n+1), e.Lambda)
		}
		if n > 1 {
			c.AddRate(active(n), active(n-1), e.Mu)
		} else {
			c.AddRate(active(1), afterLastJob, e.Mu)
		}
	}
	if hasIdle {
		phT := float64(e.K) / e.T
		for j := 1; j <= e.K; j++ {
			c.AddRate(idle(j), active(1), e.Lambda)
			next := standby
			if j < e.K {
				next = idle(j + 1)
			}
			c.AddRate(idle(j), next, phT)
		}
	}
	return c
}

// TestErlangChainMatchesStringKeyedGenerator pins the slot-indexed state
// table to the string-keyed construction: same state count and the same
// generator, RowPtr, ColIdx and every bit of Val, across K, the CLI's
// power-up delays, both zero-delay collapses and an explicit queue cap.
func TestErlangChainMatchesStringKeyedGenerator(t *testing.T) {
	var cases []ErlangCPU
	for _, k := range []int{1, 8, 64} {
		for _, pud := range []float64{0.001, 0.3, 10} {
			cases = append(cases, ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: pud, K: k})
		}
	}
	cases = append(cases,
		ErlangCPU{Lambda: 1, Mu: 10, T: 0, D: 0.3, K: 8},
		ErlangCPU{Lambda: 1, Mu: 10, T: 0.5, D: 0, K: 8},
		ErlangCPU{Lambda: 1, Mu: 10, T: 0, D: 0, K: 4},
		ErlangCPU{Lambda: 2, Mu: 5, T: 0.5, D: 2, K: 16, QueueCap: 60},
	)
	for _, e := range cases {
		t.Run(fmt.Sprintf("K=%d/T=%g/D=%g/cap=%d", e.K, e.T, e.D, e.QueueCap), func(t *testing.T) {
			c, err := e.chain()
			if err != nil {
				t.Fatal(err)
			}
			oracle := stringKeyedErlangChain(e, c.qcap)
			if c.n != oracle.Len() {
				t.Fatalf("%d states, oracle %d", c.n, oracle.Len())
			}
			got, want := generator(c.n, c.rates), oracle.Generator()
			if fmt.Sprint(got.RowPtr) != fmt.Sprint(want.RowPtr) || fmt.Sprint(got.ColIdx) != fmt.Sprint(want.ColIdx) {
				t.Fatal("generator structure differs from the oracle's")
			}
			for k, v := range want.Val {
				if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
					t.Fatalf("Val[%d] = %v, oracle %v", k, got.Val[k], v)
				}
			}
		})
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
