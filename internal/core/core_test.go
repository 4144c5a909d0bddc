package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/petri"
	"repro/internal/xrand"
)

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Lambda != 1 || cfg.Mu != 10 || cfg.SimTime != 1000 {
		t.Fatalf("paper config drifted: %+v", cfg)
	}
	if cfg.Power.Name != "PXA271" {
		t.Fatalf("paper power model = %q", cfg.Power.Name)
	}
	if cfg.Rho() != 0.1 {
		t.Fatalf("rho = %v, want 0.1", cfg.Rho())
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Mu = 0 },
		func(c *Config) { c.Lambda = c.Mu }, // rho = 1
		func(c *Config) { c.PDT = -1 },
		func(c *Config) { c.PUD = -1 },
		func(c *Config) { c.SimTime = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.Replications = -1 },
	}
	for i, mutate := range mutations {
		cfg := PaperConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestConfigValidateNonFinite: NaN and ±Inf are rejected in every delay
// and horizon, naming the field, so an infinite -pud or -simtime fails
// before any estimator runs.
func TestConfigValidateNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"PDT", func(c *Config, v float64) { c.PDT = v }},
		{"PUD", func(c *Config, v float64) { c.PUD = v }},
		{"SimTime", func(c *Config, v float64) { c.SimTime = v }},
		{"Warmup", func(c *Config, v float64) { c.Warmup = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := PaperConfig()
			f.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestNetStructureMatchesTable1(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Places) != 9 {
		t.Fatalf("places = %d, want 9", len(n.Places))
	}
	if len(n.Transitions) != 8 {
		t.Fatalf("transitions = %d, want 8", len(n.Transitions))
	}
	// Table 1 priorities.
	wantPrio := map[string]int{TransT1: 4, TransT6: 3, TransT5: 2, TransT2: 1}
	for name, prio := range wantPrio {
		id, ok := n.TransitionByName(name)
		if !ok {
			t.Fatalf("missing transition %s", name)
		}
		tr := n.Transitions[id]
		if tr.Kind != petri.Immediate || tr.Priority != prio {
			t.Fatalf("%s: kind=%v priority=%d, want immediate priority %d", name, tr.Kind, tr.Priority, prio)
		}
	}
	// Table 1 firing distributions.
	for name, wantDelay := range map[string]string{
		TransAR:  "Exp(rate=1)",
		TransSR:  "Exp(rate=10)",
		TransPDT: "Det(0.5)",
		TransPUT: "Det(0.001)",
	} {
		id, _ := n.TransitionByName(name)
		if got := n.Transitions[id].Delay.String(); got != wantDelay {
			t.Fatalf("%s delay = %s, want %s", name, got, wantDelay)
		}
	}
	// PDT carries the two inhibitor arcs of Figure 3.
	pdtID, _ := n.TransitionByName(TransPDT)
	if len(n.Transitions[pdtID].Inhibitors) != 2 {
		t.Fatalf("PDT inhibitors = %d, want 2", len(n.Transitions[pdtID].Inhibitors))
	}
}

// TestNetFusedChains pins the vanishing-chain fusion the compiled engine
// derives for Figure 3: the paper's immediate cascade behind each timed
// transition collapses into that transition's firing program, guarded by
// runtime preconditions on the pre-firing marking.
func TestNetFusedChains(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	c, err := petri.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	assertChain := func(name string, wantChain, wantPre []string) {
		t.Helper()
		id, ok := n.TransitionByName(name)
		if !ok {
			t.Fatalf("no transition %s", name)
		}
		var chain []string
		for _, f := range c.FusedChain(id) {
			chain = append(chain, n.Transitions[f].Name)
		}
		if fmt.Sprint(chain) != fmt.Sprint(wantChain) {
			t.Errorf("%s fused chain = %v, want %v", name, chain, wantChain)
		}
		pre := append([]string(nil), c.FusedPreconds(id)...)
		sortStrings(pre)
		want := append([]string(nil), wantPre...)
		sortStrings(want)
		if fmt.Sprint(pre) != fmt.Sprint(want) {
			t.Errorf("%s chain preconditions = %v, want %v", name, pre, want)
		}
	}
	// An arrival at an on-and-idle CPU runs the whole T1→T5→T2 cascade:
	// admit the job, discard the power-up notice, start service — one
	// event, net effect Idle−1/Active+1.
	assertChain(TransAR, []string{TransT1, TransT5, TransT2}, []string{
		PlaceStandBy + " < 1", PlaceCPUOn + " >= 1", PlaceIdle + " >= 1",
	})
	// A service completion immediately starts the next buffered job.
	assertChain(TransSR, []string{TransT2}, []string{
		PlaceCPUBuffer + " >= 1", PlaceCPUOn + " >= 1",
	})
	// Power-up with a buffered job starts service at once. (P6 < 2: a
	// second pending notice would re-enable T5 first.)
	assertChain(TransPUT, []string{TransT2}, []string{
		PlaceP6 + " < 2", PlaceCPUBuffer + " >= 1",
	})
	// Power-down leads nowhere provable: T6 needs a P6 token, but any
	// marking with P6 ≥ 1 and the CPU on would have fired T5 already, so
	// the candidate chain contradicts tangibility and is refused.
	assertChain(TransPDT, nil, nil)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestNetPInvariants verifies the three structural conservation laws of
// DESIGN.md §4 directly from the incidence matrix.
func TestNetPInvariants(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	invs, err := petri.PInvariants(n)
	if err != nil {
		t.Fatal(err)
	}
	m0 := n.InitialMarking()
	find := func(desc string, want map[string]int, wantVal int) {
		t.Helper()
		for _, y := range invs {
			match := true
			for i, p := range n.Places {
				if y[i] != want[p.Name] {
					match = false
					break
				}
			}
			if match {
				if got := petri.InvariantValue(m0, y); got != wantVal {
					t.Fatalf("%s: initial invariant value %d, want %d", desc, got, wantVal)
				}
				return
			}
		}
		t.Fatalf("%s: invariant not found in %v", desc, invs)
	}
	// M(P0) + M(P1) = 1: one arrival timer.
	find("generator", map[string]int{PlaceP0: 1, PlaceP1: 1}, 1)
	// M(Stand_By) + M(Power_Up) + M(CPU_ON) = 1: one power-state token.
	find("power state", map[string]int{PlaceStandBy: 1, PlacePowerUp: 1, PlaceCPUOn: 1}, 1)
	// M(Idle) + M(Active) - M(CPU_ON) = 0 is a non-negative-combination
	// variant: Idle + Active + Stand_By + Power_Up = 1.
	find("processor occupancy", map[string]int{
		PlaceIdle: 1, PlaceActive: 1, PlaceStandBy: 1, PlacePowerUp: 1,
	}, 1)
}

// TestNetInvariantsHoldUnderRandomExecution fires random enabled
// transitions and checks every invariant value stays constant — the dynamic
// counterpart of the structural test.
func TestNetInvariantsHoldUnderRandomExecution(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	invs, err := petri.PInvariants(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) == 0 {
		t.Fatal("no invariants found")
	}
	m := n.InitialMarking()
	want := make([]int, len(invs))
	for i, y := range invs {
		want[i] = petri.InvariantValue(m, y)
	}
	r := xrand.New(99)
	for step := 0; step < 5000; step++ {
		var enabled []petri.TransitionID
		for ti := range n.Transitions {
			if n.Enabled(m, petri.TransitionID(ti)) {
				enabled = append(enabled, petri.TransitionID(ti))
			}
		}
		if len(enabled) == 0 {
			t.Fatalf("CPU net deadlocked at step %d, marking %v", step, m)
		}
		n.Fire(m, enabled[r.Intn(len(enabled))])
		for i, y := range invs {
			if got := petri.InvariantValue(m, y); got != want[i] {
				t.Fatalf("invariant %d broke at step %d: %d -> %d (marking %v)", i, step, want[i], got, m)
			}
		}
		// Physical sanity: the state places are 0/1.
		for _, name := range []string{PlaceStandBy, PlacePowerUp, PlaceCPUOn, PlaceIdle, PlaceActive} {
			id, _ := n.PlaceByName(name)
			if m[id] < 0 || m[id] > 1 {
				t.Fatalf("place %s has %d tokens at step %d", name, m[id], step)
			}
		}
	}
}

func TestMethodsList(t *testing.T) {
	ms := Methods()
	if len(ms) != 3 {
		t.Fatalf("Methods() returned %d estimators", len(ms))
	}
	names := []string{ms[0].Name(), ms[1].Name(), ms[2].Name()}
	want := []string{"Simulation", "Markov", "PetriNet"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Methods() order = %v, want %v", names, want)
		}
	}
}

// quickCfg returns a reduced-effort configuration for agreement tests.
func quickCfg(pdt, pud float64) Config {
	cfg := PaperConfig()
	cfg.PDT = pdt
	cfg.PUD = pud
	cfg.SimTime = 3000
	cfg.Warmup = 100
	cfg.Replications = 6
	return cfg
}

// TestThreeWayAgreementSmallD reproduces the headline of Table 4 row 1: at
// PUD = 0.001 all three methods agree on the steady-state percentages.
func TestThreeWayAgreementSmallD(t *testing.T) {
	cfg := quickCfg(0.5, 0.001)
	ests, err := compareMethods(cfg, Methods())
	if err != nil {
		t.Fatal(err)
	}
	sim, mkv, pn := ests[0], ests[1], ests[2]
	for _, s := range energy.States {
		if d := math.Abs(sim.Fractions[s] - mkv.Fractions[s]); d > 0.03 {
			t.Errorf("state %s: |Sim-Markov| = %v", s, d)
		}
		if d := math.Abs(sim.Fractions[s] - pn.Fractions[s]); d > 0.03 {
			t.Errorf("state %s: |Sim-PN| = %v", s, d)
		}
	}
	if d := math.Abs(sim.EnergyJ - mkv.EnergyJ); d > 2 {
		t.Errorf("|Sim-Markov| energy = %v J", d)
	}
	if d := math.Abs(sim.EnergyJ - pn.EnergyJ); d > 2 {
		t.Errorf("|Sim-PN| energy = %v J", d)
	}
}

// TestMarkovDivergesAtLargeD reproduces the paper's core finding (Tables 4
// and 5): at PUD = 10 s the Markov approximation deviates from simulation
// while the Petri net stays close.
func TestMarkovDivergesAtLargeD(t *testing.T) {
	cfg := quickCfg(0.5, 10)
	ests, err := compareMethods(cfg, Methods())
	if err != nil {
		t.Fatal(err)
	}
	sim, mkv, pn := ests[0], ests[1], ests[2]
	simMarkov, simPN := 0.0, 0.0
	for _, s := range energy.States {
		simMarkov += math.Abs(sim.Fractions[s] - mkv.Fractions[s])
		simPN += math.Abs(sim.Fractions[s] - pn.Fractions[s])
	}
	if simPN > 0.06 {
		t.Errorf("Petri net drifted from simulation at large D: total |Δ| = %v", simPN)
	}
	if simMarkov < 3*simPN || simMarkov < 0.1 {
		t.Errorf("expected Markov to diverge at D=10: Sim-Markov=%v, Sim-PN=%v", simMarkov, simPN)
	}
}

// TestPetriMatchesSimulationExactly: the Figure-3 net and the event
// simulator encode the same stochastic process, so their distributions
// agree within Monte-Carlo noise for every state at every delay scale.
func TestPetriMatchesSimulationAcrossD(t *testing.T) {
	for _, pud := range []float64{0.001, 0.3, 10} {
		cfg := quickCfg(0.5, pud)
		sim, err := Simulation{}.Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := PetriNet{}.Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range energy.States {
			tol := 3*(sim.FractionsCI[s]+pn.FractionsCI[s]) + 0.02
			if d := math.Abs(sim.Fractions[s] - pn.Fractions[s]); d > tol {
				t.Errorf("PUD=%v state %s: |Sim-PN| = %v > tol %v", pud, s, d, tol)
			}
		}
	}
}

// TestErlangMarkovBeatsPlainMarkovAtLargeD: the phase-type extension fixes
// the constant-delay weakness the paper identifies.
func TestErlangMarkovBeatsPlainMarkovAtLargeD(t *testing.T) {
	cfg := quickCfg(0.5, 10)
	cfg.SimTime = 5000
	cfg.Replications = 8
	sim, err := Simulation{}.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkv, err := Markov{}.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	erl, err := ErlangMarkov{K: 32}.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errMkv, errErl := 0.0, 0.0
	for _, s := range energy.States {
		errMkv += math.Abs(sim.Fractions[s] - mkv.Fractions[s])
		errErl += math.Abs(sim.Fractions[s] - erl.Fractions[s])
	}
	if errErl >= errMkv/2 {
		t.Fatalf("Erlang-Markov error %v not clearly better than Markov %v", errErl, errMkv)
	}
}

// TestCTMCCrossValidation (experiment X-4): the exponentialized net solved
// exactly as a CTMC agrees with (a) its own simulation and (b) the K=1
// Erlang chain built independently in internal/markov.
func TestCTMCCrossValidation(t *testing.T) {
	cfg := quickCfg(0.5, 0.3)
	const cap = 40
	n := BuildCPUNetExp(cfg, cap)
	exact, err := petri.SolveCTMC(n, petri.ReachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := petri.Simulate(n, petri.SimOptions{Seed: 4, Warmup: 200, Duration: 30000})
	if err != nil {
		t.Fatal(err)
	}
	erl, err := ErlangMarkov{K: 1}.Estimate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, place := range statePlaces() {
		want := exact.PlaceAvgByName(n, place)
		if d := math.Abs(simRes.PlaceAvgByName(n, place) - want); d > 0.02 {
			t.Errorf("state %s: net simulation %v vs CTMC %v", s, simRes.PlaceAvgByName(n, place), want)
		}
		if d := math.Abs(erl.Fractions[s] - want); d > 0.005 {
			t.Errorf("state %s: ErlangMarkov(K=1) %v vs net CTMC %v", s, erl.Fractions[s], want)
		}
	}
}

func TestEstimatorsRejectInvalidConfig(t *testing.T) {
	bad := PaperConfig()
	bad.Mu = 0.5 // rho > 1
	for _, e := range append(Methods(), ErlangMarkov{}) {
		if _, err := e.Estimate(bad); err == nil {
			t.Errorf("%s accepted unstable config", e.Name())
		}
	}
}

// compareMethods runs every estimator on one configuration through a
// Runner, with the configuration's own seed used verbatim.
func compareMethods(cfg Config, ests []Estimator) ([]*Estimate, error) {
	r, err := NewRunner(WithConfig(cfg), WithEstimators(ests...), WithSeedDerivation(false))
	if err != nil {
		return nil, err
	}
	res, err := r.Run(context.Background(), Scenario{})
	return res.Estimates, err
}

func TestRunnerPropagatesError(t *testing.T) {
	// Invalid configurations fail fast at Runner construction, before any
	// estimator runs.
	bad := PaperConfig()
	bad.SimTime = -1
	if _, err := compareMethods(bad, Methods()); err == nil || !strings.Contains(err.Error(), "SimTime") {
		t.Fatalf("want config validation error, got %v", err)
	}
	// Estimator-level failures keep the estimator's name in the error.
	failing := AdaptEstimator(failingEstimator{})
	if _, err := compareMethods(PaperConfig(), []Estimator{failing}); err == nil ||
		!strings.Contains(err.Error(), "Failing") {
		t.Fatalf("want wrapped estimator error, got %v", err)
	}
}

// failingEstimator always errors; used to pin error propagation.
type failingEstimator struct{}

func (failingEstimator) Name() string { return "Failing" }

func (failingEstimator) Estimate(cfg Config) (*Estimate, error) {
	return nil, fmt.Errorf("deliberate failure")
}

func TestEstimateFractionsSumToOne(t *testing.T) {
	cfg := quickCfg(0.3, 0.3)
	for _, e := range append(Methods(), ErlangMarkov{K: 8}) {
		est, err := e.Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Fractions.Validate(1e-6); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

func TestDOTExportOfCPUNet(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	d := petri.DOT(n)
	for _, name := range []string{PlaceCPUBuffer, PlaceStandBy, TransPDT, "odot"} {
		if !strings.Contains(d, name) {
			t.Fatalf("DOT output missing %q", name)
		}
	}
}

func TestCPUNetJSONRoundTrip(t *testing.T) {
	n := BuildCPUNet(PaperConfig())
	data, err := petri.MarshalJSON(n)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := petri.UnmarshalJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := petri.Simulate(n, petri.SimOptions{Seed: 1, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := petri.Simulate(n2, petri.SimOptions{Seed: 1, Duration: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.PlaceAvg {
		if r1.PlaceAvg[i] != r2.PlaceAvg[i] {
			t.Fatal("JSON round-trip changed simulation behaviour")
		}
	}
}
