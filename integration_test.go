// Integration tests across the whole stack: the public facade, the
// estimator agreement structure the paper reports, and end-to-end
// serialization of the Figure-3 net.
package repro_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/energy"
	"repro/internal/petri"

	// Registers the field estimators ("field", "fieldline", "fieldstar")
	// with the method registry used by repro.WithMethods.
	_ "repro/internal/field"
)

// compareMethods runs the paper's three methods on one configuration
// through a Runner, with the configuration's own seed used verbatim.
func compareMethods(cfg repro.Config) ([]*repro.Estimate, error) {
	r, err := repro.New(repro.WithConfig(cfg), repro.WithEstimators(repro.Methods()...), repro.WithSeedDerivation(false))
	if err != nil {
		return nil, err
	}
	res, err := r.Run(context.Background(), repro.Scenario{})
	return res.Estimates, err
}

func TestFacadePaperConfig(t *testing.T) {
	cfg := repro.PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if repro.PXA271.Name != "PXA271" {
		t.Fatal("facade power table wrong")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := repro.PaperConfig()
	cfg.SimTime = 500
	cfg.Warmup = 50
	cfg.Replications = 3
	ests, err := compareMethods(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("estimates = %d, want 3", len(ests))
	}
	for _, e := range ests {
		if err := e.Fractions.Validate(1e-6); err != nil {
			t.Errorf("%s: %v", e.Method, err)
		}
		if e.EnergyJ < 17*0.5 || e.EnergyJ > 193*0.5 {
			t.Errorf("%s: energy %v J outside physical bounds for 500 s", e.Method, e.EnergyJ)
		}
	}
}

// TestPaperShapeEndToEnd is the one-test summary of the reproduction: runs
// the three methods at small and large PUD and asserts the paper's
// qualitative conclusions.
func TestPaperShapeEndToEnd(t *testing.T) {
	small := repro.PaperConfig()
	small.SimTime = 2000
	small.Replications = 5
	small.PUD = 0.001

	large := small
	large.PUD = 10

	diff := func(a, b *repro.Estimate) float64 {
		d := 0.0
		for s := energy.State(0); s < energy.NumStates; s++ {
			d += math.Abs(a.Fractions[s] - b.Fractions[s])
		}
		return d
	}

	for name, cfg := range map[string]repro.Config{"small": small, "large": large} {
		ests, err := compareMethods(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, mkv, pn := ests[0], ests[1], ests[2]
		switch name {
		case "small":
			// Conclusion 1 (Table 4 row 1): all three agree at small D.
			if d := diff(sim, mkv); d > 0.05 {
				t.Errorf("small D: Sim-Markov = %v", d)
			}
			if d := diff(sim, pn); d > 0.05 {
				t.Errorf("small D: Sim-PN = %v", d)
			}
		case "large":
			// Conclusion 2 (Table 4 row 3): Markov collapses, PN holds.
			if dm, dp := diff(sim, mkv), diff(sim, pn); dm < 5*dp {
				t.Errorf("large D: Sim-Markov (%v) should dwarf Sim-PN (%v)", dm, dp)
			}
		}
	}
}

// TestFigure3NetThroughTheFacade exercises the exported net builder with
// the generic engine and validates the queueing identity throughput(SR) =
// lambda.
func TestFigure3NetThroughTheFacade(t *testing.T) {
	cfg := repro.PaperConfig()
	n := repro.BuildCPUNet(cfg)
	res, err := petri.Simulate(n, petri.SimOptions{Seed: 9, Warmup: 100, Duration: 5000})
	if err != nil {
		t.Fatal(err)
	}
	srID, ok := n.TransitionByName("SR")
	if !ok {
		t.Fatal("SR missing")
	}
	if math.Abs(res.Throughput[srID]-cfg.Lambda) > 0.05 {
		t.Fatalf("service throughput = %v, want ~lambda = %v", res.Throughput[srID], cfg.Lambda)
	}
	arID, _ := n.TransitionByName("AR")
	t1ID, _ := n.TransitionByName("T1")
	if res.Firings[arID] != res.Firings[t1ID] {
		t.Fatalf("every arrival must be admitted exactly once: AR=%d T1=%d",
			res.Firings[arID], res.Firings[t1ID])
	}
}

// TestFieldThroughRunBatch streams a 100-node sensor-field simulation
// through the public Runner batch path: the field estimator resolves from
// the registry like any paper method, so whole-field scenarios ride the
// same worker pool, cache and cancellation as single-node sweeps.
func TestFieldThroughRunBatch(t *testing.T) {
	cfg := repro.PaperConfig()
	cfg.Lambda = 0.05 // per-node sample rate; 100 nodes funnel 5 job/s into the sink
	cfg.SimTime = 30
	cfg.Warmup = 5
	r, err := repro.New(repro.WithConfig(cfg), repro.WithMethods("field100"))
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []repro.Scenario{{Name: "flat"}}
	dense := cfg
	dense.Lambda = 0.09
	scenarios = append(scenarios, repro.Scenario{Name: "dense", Config: dense})

	ch, err := r.RunBatch(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*repro.Estimate{}
	for res := range ch {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Scenario.Name, res.Err)
		}
		if len(res.Estimates) != 1 {
			t.Fatalf("%s: %d estimates, want 1", res.Scenario.Name, len(res.Estimates))
		}
		got[res.Scenario.Name] = res.Estimates[0]
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	for name, e := range got {
		if !strings.Contains(e.Method, "n=100") {
			t.Errorf("%s: method %q does not name the 100-node field", name, e.Method)
		}
		if e.EnergyJ <= 0 || math.IsNaN(e.EnergyJ) {
			t.Errorf("%s: field energy %v", name, e.EnergyJ)
		}
		if e.Node.LifetimeSeconds <= 0 || math.IsInf(e.Node.LifetimeSeconds, 1) {
			t.Errorf("%s: network lifetime %v", name, e.Node.LifetimeSeconds)
		}
		if e.Node.PacketsPerSecond <= 0 {
			t.Errorf("%s: sink throughput %v", name, e.Node.PacketsPerSecond)
		}
	}
	// More traffic per node costs more energy across the whole field.
	if got["dense"].EnergyJ <= got["flat"].EnergyJ {
		t.Errorf("dense field energy %v <= flat %v", got["dense"].EnergyJ, got["flat"].EnergyJ)
	}
}

// TestEnergyMonotoneInPDTEndToEnd checks the Figure-5 trend through the
// facade for all three methods.
func TestEnergyMonotoneInPDTEndToEnd(t *testing.T) {
	prev := map[string]float64{}
	for _, pdt := range []float64{0, 0.5, 1.0} {
		cfg := repro.PaperConfig()
		cfg.PDT = pdt
		cfg.SimTime = 2000
		cfg.Replications = 5
		ests, err := compareMethods(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ests {
			if last, ok := prev[e.Method]; ok && e.EnergyJ <= last {
				t.Errorf("%s: energy not increasing at PDT=%v: %v <= %v", e.Method, pdt, e.EnergyJ, last)
			}
			prev[e.Method] = e.EnergyJ
		}
	}
}
