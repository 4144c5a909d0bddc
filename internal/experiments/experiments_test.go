package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
)

// quickOptions shrinks the sweeps so the full experiment suite runs in
// seconds under go test; cmd/wsnenergy uses the full Default() options.
func quickOptions() Options {
	opt := Default()
	opt.Base.SimTime = 400
	opt.Base.Warmup = 50
	opt.Base.Replications = 3
	opt.PDTs = []float64{0, 0.5, 1.0}
	opt.PUDs = []float64{0.001, 10}
	return opt
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestTable1Static(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 8 {
		t.Fatalf("Table 1 rows = %d, want 8 transitions", len(tb.Rows))
	}
	ascii := tb.ASCII()
	for _, name := range []string{"AR", "T1", "T2", "SR", "PDT", "T5", "T6", "PUT", "Deterministic"} {
		if !strings.Contains(ascii, name) {
			t.Fatalf("Table 1 missing %q:\n%s", name, ascii)
		}
	}
}

func TestTable2(t *testing.T) {
	tb := Table2(core.PaperConfig())
	ascii := tb.ASCII()
	for _, want := range []string{"1000 sec", "1 per sec", "mean service 0.1 sec"} {
		if !strings.Contains(ascii, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, ascii)
		}
	}
}

func TestTable3(t *testing.T) {
	tb := Table3(energy.PXA271)
	ascii := tb.ASCII()
	for _, want := range []string{"17.000", "88.000", "192.442", "193.000"} {
		if !strings.Contains(ascii, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, ascii)
		}
	}
}

func TestFigure4ShapeAndTrends(t *testing.T) {
	fig, err := Figure4(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 3 methods x 4 states.
	if len(fig.Series) != 12 {
		t.Fatalf("series = %d, want 12", len(fig.Series))
	}
	// Locate the Markov standby and idle series (analytic, noise-free)
	// and verify the paper's trends: standby falls, idle rises with PDT.
	for _, s := range fig.Series {
		switch s.Name {
		case "Markov/standby":
			if !(s.Y[0] > s.Y[len(s.Y)-1]) {
				t.Errorf("standby should fall with PDT: %v", s.Y)
			}
		case "Markov/idle":
			if !(s.Y[0] < s.Y[len(s.Y)-1]) {
				t.Errorf("idle should rise with PDT: %v", s.Y)
			}
		case "Markov/active":
			for _, v := range s.Y {
				if math.Abs(v-10) > 1 { // rho = 10%
					t.Errorf("active should stay ~10%%: %v", s.Y)
					break
				}
			}
		}
	}
	// Render paths do not panic and contain the series names.
	if !strings.Contains(fig.CSV(), "Simulation/standby") {
		t.Fatal("figure CSV missing simulation series")
	}
	if !strings.Contains(fig.ASCIIChart(60, 16), "PetriNet/idle") {
		t.Fatal("figure chart missing legend")
	}
}

func TestFigure5EnergyRises(t *testing.T) {
	fig, err := Figure5(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("%s: energy should rise with PDT: %v", s.Name, s.Y)
		}
		// Physical bounds for the PXA271 over 400 s: between all-standby
		// and all-active.
		for _, v := range s.Y {
			if v < 17*0.4 || v > 193*0.4 {
				t.Errorf("%s: energy %v J outside bounds", s.Name, v)
			}
		}
	}
}

func TestTable4ReproducesPaperOrdering(t *testing.T) {
	tb, err := Table4(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want one per PUD", len(tb.Rows))
	}
	// Columns: PUD, Sim-Markov, Sim-PN, Markov-PN.
	smallD := tb.Rows[0]
	largeD := tb.Rows[1]
	simMarkovSmall := parseCell(t, smallD[1])
	simMarkovLarge := parseCell(t, largeD[1])
	simPNLarge := parseCell(t, largeD[2])
	// The paper's core finding: Markov error explodes with D while the
	// Petri net stays near the simulation.
	if simMarkovLarge < 5*simMarkovSmall {
		t.Errorf("Sim-Markov should explode with D: small=%v large=%v", simMarkovSmall, simMarkovLarge)
	}
	if simMarkovLarge < 3*simPNLarge {
		t.Errorf("at D=10, Markov error (%v) should dominate PN error (%v)", simMarkovLarge, simPNLarge)
	}
}

func TestTable5EnergyOrdering(t *testing.T) {
	tb, err := Table5(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	largeD := tb.Rows[len(tb.Rows)-1]
	simMarkov := parseCell(t, largeD[1])
	simPN := parseCell(t, largeD[2])
	if simMarkov < 2*simPN {
		t.Errorf("at D=10, |Sim-Markov| energy (%v J) should dominate |Sim-PN| (%v J)", simMarkov, simPN)
	}
}

func TestTablesRequireThreeEstimators(t *testing.T) {
	opt := quickOptions()
	opt.Estimators = []core.Estimator{core.Markov{}}
	if _, err := Table4(opt); err == nil {
		t.Fatal("Table4 accepted 1 estimator")
	}
	if _, err := Table5(opt); err == nil {
		t.Fatal("Table5 accepted 1 estimator")
	}
}

func TestErlangAblationConverges(t *testing.T) {
	opt := quickOptions()
	opt.Base.SimTime = 2000
	opt.Base.Replications = 6
	tb, err := ErlangAblation(opt, []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: Markov, K=1, K=8, K=32, PetriNet.
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tb.Rows))
	}
	k1 := parseCell(t, tb.Rows[1][1])
	k32 := parseCell(t, tb.Rows[3][1])
	if k32 >= k1 {
		t.Errorf("Erlang error should shrink with K: K=1 %v vs K=32 %v", k1, k32)
	}
	markov := parseCell(t, tb.Rows[0][1])
	if k32 >= markov {
		t.Errorf("Erlang K=32 (%v) should beat plain Markov (%v) at large D", k32, markov)
	}
}

func TestPolicyAblationTradeoff(t *testing.T) {
	opt := quickOptions()
	opt.Base.SimTime = 2000
	tb, err := PolicyAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 policies", len(tb.Rows))
	}
	eNever := parseCell(t, tb.Rows[0][1])
	eAlways := parseCell(t, tb.Rows[2][1])
	lNever := parseCell(t, tb.Rows[0][2])
	lAlways := parseCell(t, tb.Rows[2][2])
	if eAlways >= eNever {
		t.Errorf("always-sleep should save energy: %v vs %v", eAlways, eNever)
	}
	if lAlways <= lNever {
		t.Errorf("always-sleep should cost latency: %v vs %v", lAlways, lNever)
	}
}

func TestWorkloadComparison(t *testing.T) {
	opt := quickOptions()
	opt.Base.SimTime = 1500
	tb, err := WorkloadComparison(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d, want >= 4 workloads", len(tb.Rows))
	}
	// The periodic workload at rate 1 with PDT 0.5 never sleeps mid-gap
	// less often than Poisson... at minimum all energies are physical.
	for _, row := range tb.Rows {
		e := parseCell(t, row[1])
		if e < 17*1.5 || e > 193*1.5 {
			t.Errorf("workload %s: energy %v J outside bounds", row[0], e)
		}
	}
}

func TestCTMCCrossCheckAgreement(t *testing.T) {
	opt := quickOptions()
	tb, err := CTMCCrossCheck(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 states", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		exact := parseCell(t, row[1])
		sim := parseCell(t, row[2])
		erl := parseCell(t, row[3])
		if math.Abs(exact-sim) > 0.03 {
			t.Errorf("state %s: CTMC %v vs sim %v", row[0], exact, sim)
		}
		if math.Abs(exact-erl) > 0.01 {
			t.Errorf("state %s: CTMC %v vs Erlang %v", row[0], exact, erl)
		}
	}
}

func TestLifetimeDecreasesWithLoad(t *testing.T) {
	opt := quickOptions()
	tb, err := Lifetime(opt, []float64{0.2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	light := parseCell(t, tb.Rows[0][5])
	heavy := parseCell(t, tb.Rows[1][5])
	if heavy >= light {
		t.Errorf("lifetime should fall with load: %v vs %v days", light, heavy)
	}
}

func TestConvergenceErrorShrinksWithHorizon(t *testing.T) {
	opt := quickOptions()
	opt.Base.Replications = 4
	tb, err := Convergence(opt, []float64{20, 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: PN @ 20, PN @ 2000, Markov reference.
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	short := parseCell(t, tb.Rows[0][1])
	long := parseCell(t, tb.Rows[1][1])
	if long >= short {
		t.Errorf("PN error did not shrink with horizon: %v -> %v", short, long)
	}
	shortCI := parseCell(t, tb.Rows[0][2])
	longCI := parseCell(t, tb.Rows[1][2])
	if longCI >= shortCI {
		t.Errorf("PN CI did not shrink with horizon: %v -> %v", shortCI, longCI)
	}
}

func TestTransientFigure(t *testing.T) {
	opt := quickOptions()
	fig, err := Transient(opt, 5, 0.5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Name == "standby" {
			// Cold start: the CPU begins in standby with certainty.
			if s.Y[0] != 1 {
				t.Errorf("P(standby) at t=0 = %v, want 1", s.Y[0])
			}
			// By the end of the window it must have dropped toward the
			// stationary value (~0.54 at PDT=0.5).
			if last := s.Y[len(s.Y)-1]; last > 0.8 {
				t.Errorf("P(standby) did not decay: %v", last)
			}
		}
	}
}

// TestConvergenceOutputStable: X-6 carries no wall-clock column, so
// repeated renders are byte-identical and `-experiment all` is stable
// between two runs.
func TestConvergenceOutputStable(t *testing.T) {
	opt := quickOptions()
	var first string
	for i := 0; i < 4; i++ {
		tb, err := Convergence(opt, []float64{5, 20})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = tb.CSV()
			continue
		}
		if csv := tb.CSV(); csv != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, csv, first)
		}
	}
}

// TestTransientOutputStable: X-7 emits its series in a fixed order
// (standby, idle, active), so repeated renders are byte-identical.
func TestTransientOutputStable(t *testing.T) {
	opt := quickOptions()
	var first string
	for i := 0; i < 8; i++ {
		fig, err := Transient(opt, 2, 0.5, 20)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			var names []string
			for _, s := range fig.Series {
				names = append(names, s.Name)
			}
			if got := strings.Join(names, ","); got != "standby,idle,active" {
				t.Fatalf("series order %s, want standby,idle,active", got)
			}
			first = fig.CSV()
			continue
		}
		if csv := fig.CSV(); csv != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, csv, first)
		}
	}
}

func TestNetworkLifetime(t *testing.T) {
	tb, err := NetworkLifetime(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 topologies", len(tb.Rows))
	}
	// The 8-node line must not outlive the 4-node line (more traffic
	// funnels into the bottleneck).
	life4 := parseCell(t, tb.Rows[0][4])
	life8 := parseCell(t, tb.Rows[1][4])
	if life8 > life4 {
		t.Errorf("8-node line (%v d) outlives 4-node line (%v d)", life8, life4)
	}
}

// TestSweepDeterministicAcrossParallelism pins the Runner rewire's
// contract: a sweep's numbers must not depend on the worker-pool size.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	opt := quickOptions()
	opt.Base.Replications = 2
	opt.Parallelism = 1
	seq, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the memoized results of the first sweep so the parallel run
	// actually evaluates estimators on the worker pool instead of
	// answering from the cache.
	core.ResetEstimateCache()
	opt.Parallelism = 4
	par, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Series) != len(par.Series) {
		t.Fatalf("series count differs: %d vs %d", len(seq.Series), len(par.Series))
	}
	for si := range seq.Series {
		for i := range seq.Series[si].Y {
			if seq.Series[si].Y[i] != par.Series[si].Y[i] {
				t.Fatalf("series %s point %d: sequential %v != parallel %v",
					seq.Series[si].Name, i, seq.Series[si].Y[i], par.Series[si].Y[i])
			}
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	var opt Options
	opt = opt.withDefaults()
	if len(opt.PDTs) != 11 || len(opt.PUDs) != 3 || len(opt.Estimators) != 3 {
		t.Fatalf("defaults wrong: %d PDTs, %d PUDs, %d estimators",
			len(opt.PDTs), len(opt.PUDs), len(opt.Estimators))
	}
	if opt.Base.Lambda != 1 {
		t.Fatal("base config not defaulted")
	}
}
