// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the extension experiments catalogued in
// DESIGN.md §5. Each runner returns a report.Table or report.Figure that
// cmd/wsnenergy renders as text, CSV or Markdown. Whole-sweep evaluation
// (Figures 4/5, Tables 4/5) fans out over the core Runner's worker pool.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/report"
)

// Options parameterizes the paper sweeps.
type Options struct {
	// Base is the shared model configuration (default core.PaperConfig).
	Base core.Config
	// PDTs is the Power Down Threshold sweep of Figures 4/5
	// (default 0.0, 0.1, ..., 1.0 as in the figures' x axes).
	PDTs []float64
	// PUDs is the Power Up Delay set of Tables 4/5
	// (default 0.001, 0.3, 10.0).
	PUDs []float64
	// Estimators are the compared methods (default core.Methods()).
	Estimators []core.Estimator
	// Parallelism bounds the sweep worker pool (default: all CPUs), the
	// only parallelism: each estimate runs its replications sequentially.
	Parallelism int
}

// Default returns the paper's experiment options.
func Default() Options {
	return Options{
		Base:       core.PaperConfig(),
		PDTs:       []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		PUDs:       []float64{0.001, 0.3, 10.0},
		Estimators: core.Methods(),
	}
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	d := Default()
	if o.Base.Lambda == 0 {
		o.Base = d.Base
	}
	if len(o.PDTs) == 0 {
		o.PDTs = d.PDTs
	}
	if len(o.PUDs) == 0 {
		o.PUDs = d.PUDs
	}
	if len(o.Estimators) == 0 {
		o.Estimators = d.Estimators
	}
	return o
}

// sweepPoint holds every estimator's result at one PDT value.
type sweepPoint struct {
	PDT       float64
	Estimates []*core.Estimate // parallel to the estimator list
}

// SweepScenarios returns the PDT-sweep scenario list at a fixed PUD — the
// exact batch the Figure 4/5 and Table 4/5 machinery evaluates, exposed so
// external coordinators (internal/shard, the `wsnenergy sweep` client of
// internal/sweepd) can partition the same batch across processes.
func SweepScenarios(opt Options, pud float64) []core.Scenario {
	opt = opt.withDefaults()
	scenarios := make([]core.Scenario, len(opt.PDTs))
	for i, pdt := range opt.PDTs {
		cfg := opt.Base
		cfg.PDT = pdt
		cfg.PUD = pud
		scenarios[i] = core.Scenario{Name: fmt.Sprintf("PDT=%g PUD=%g", pdt, pud), Config: cfg}
	}
	return scenarios
}

// GridScenarios returns the full scenario grid of a sweep artifact in
// canonical order: "fig4" and "fig5" sweep the PDTs at the first
// configured PUD; "table4" and "table5" concatenate the PDT sweep for
// every PUD (PUD-major). The order is the contract the From-results
// renderers and the shard merger rely on.
func GridScenarios(name string, opt Options) ([]core.Scenario, error) {
	opt = opt.withDefaults()
	switch name {
	case "fig4", "fig5":
		return SweepScenarios(opt, opt.PUDs[0]), nil
	case "table4", "table5":
		var out []core.Scenario
		for _, pud := range opt.PUDs {
			out = append(out, SweepScenarios(opt, pud)...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("experiments: %q is not a shardable sweep (want fig4, fig5, table4 or table5)", name)
	}
}

// newSweepRunner builds the Runner every sweep artifact shares: base
// config, the configured estimators, and no explicit master seed (the
// Runner defaults it to Base.Seed) — the parameterization worker processes
// must replicate for a sharded sweep to merge byte-identically.
func newSweepRunner(opt Options) (*core.Runner, error) {
	r, err := core.NewRunner(
		core.WithConfig(opt.Base),
		core.WithEstimators(opt.Estimators...),
		core.WithParallelism(opt.Parallelism), // 0 = all CPUs; negative errors
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return r, nil
}

// pointsFromEstimates shapes one PDT sweep's estimate slices into points.
func pointsFromEstimates(opt Options, ests [][]*core.Estimate) []sweepPoint {
	points := make([]sweepPoint, len(ests))
	for i := range ests {
		points[i] = sweepPoint{PDT: opt.PDTs[i], Estimates: ests[i]}
	}
	return points
}

// sweepEstimates validates and slices a result list covering exactly the
// PDT sweep repeated once per element of puds (PUD-major), returning one
// estimate matrix per PUD.
func sweepEstimates(opt Options, puds []float64, results []core.Result) ([][][]*core.Estimate, error) {
	want := len(opt.PDTs) * len(puds)
	if len(results) != want {
		return nil, fmt.Errorf("experiments: %d results for a %d-scenario grid (%d PDTs × %d PUDs)",
			len(results), want, len(opt.PDTs), len(puds))
	}
	perPUD := make([][][]*core.Estimate, len(puds))
	for p := range puds {
		block := results[p*len(opt.PDTs) : (p+1)*len(opt.PDTs)]
		ests := make([][]*core.Estimate, len(block))
		for i, res := range block {
			if res.Err != nil {
				return nil, fmt.Errorf("experiments: scenario %d: %w", res.Index, res.Err)
			}
			if len(res.Estimates) != len(opt.Estimators) {
				return nil, fmt.Errorf("experiments: scenario %d carries %d estimates, want %d",
					res.Index, len(res.Estimates), len(opt.Estimators))
			}
			ests[i] = res.Estimates
		}
		perPUD[p] = ests
	}
	return perPUD, nil
}

// sumAbsFractionDiff returns the summed absolute difference of the four
// state fractions between two estimates, in percentage points.
func sumAbsFractionDiff(a, b *core.Estimate) float64 {
	d := 0.0
	for _, s := range energy.States {
		d += abs(a.Fractions[s]-b.Fractions[s]) * 100
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// pairNames lists the method pairs of Tables 4 and 5 in paper order.
var pairNames = [][2]int{{0, 1}, {0, 2}, {1, 2}} // Sim-Markov, Sim-PN, Markov-PN

// pairLabel renders the column header for a method pair.
func pairLabel(opt Options, pair [2]int) string {
	short := func(name string) string {
		switch name {
		case "Simulation":
			return "Sim"
		case "PetriNet":
			return "PN"
		}
		return name
	}
	return fmt.Sprintf("Avg %s-%s", short(opt.Estimators[pair[0]].Name()), short(opt.Estimators[pair[1]].Name()))
}

// requireThree validates that the option set carries the paper's three
// estimators for the pairwise tables.
func requireThree(opt Options) error {
	if len(opt.Estimators) != 3 {
		return fmt.Errorf("experiments: Tables 4/5 need exactly 3 estimators, got %d", len(opt.Estimators))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Structural tables (Tables 1-3 are inputs, reproduced for completeness)

// Table1 reproduces the Petri-net transition parameter table.
func Table1() *report.Table {
	t := report.NewTable("Table 1: CPU Jobs Petri Net Transition Parameters",
		"Transition", "Firing Distribution", "Delay", "Priority")
	t.AddRow(core.TransAR, "Exponential", "1/lambda (Arrivals)", "NA")
	t.AddRow(core.TransT1, "Instantaneous", "-", "4")
	t.AddRow(core.TransT2, "Instantaneous", "-", "1")
	t.AddRow(core.TransSR, "Exponential", "1/mu (ServiceRate)", "NA")
	t.AddRow(core.TransPDT, "Deterministic", "PDD", "NA")
	t.AddRow(core.TransT5, "Instantaneous", "-", "2")
	t.AddRow(core.TransT6, "Instantaneous", "-", "3")
	t.AddRow(core.TransPUT, "Deterministic", "PUD", "NA")
	return t
}

// Table2 reproduces the simulation parameter table for a configuration.
func Table2(cfg core.Config) *report.Table {
	t := report.NewTable("Table 2: Simulation Parameters", "Parameter", "Value")
	t.AddRow("Total Simulated Time", fmt.Sprintf("%g sec", cfg.SimTime))
	t.AddRow("Arrival Rate", fmt.Sprintf("%g per sec", cfg.Lambda))
	t.AddRow("Service Rate", fmt.Sprintf("%g per sec (mean service %g sec)", cfg.Mu, 1/cfg.Mu))
	return t
}

// Table3 reproduces the power-rate table for a power model.
func Table3(p energy.PowerModel) *report.Table {
	t := report.NewTable(fmt.Sprintf("Table 3: Power Rate Parameters for the %s CPU (mW)", p.Name),
		"State", "Power Rate (mW)")
	t.AddRow("Standby", report.F(p.MW[energy.Standby], 3))
	t.AddRow("Idle", report.F(p.MW[energy.Idle], 3))
	t.AddRow("Powering Up", report.F(p.MW[energy.PowerUp], 3))
	t.AddRow("Active", report.F(p.MW[energy.Active], 3))
	return t
}

// ---------------------------------------------------------------------------
// Figure 4: steady-state percentages vs Power Down Threshold

// Figure4Ctx regenerates the steady-state-percentage sweep at the first
// configured PUD (the paper uses 0.001 s). A cancelled context aborts the
// sweep between points.
func Figure4Ctx(ctx context.Context, opt Options) (*report.Figure, error) {
	results, err := runGridCtx(ctx, opt, "fig4")
	if err != nil {
		return nil, err
	}
	return Figure4FromResults(opt, results)
}

// Figure4FromResults renders Figure 4 from precomputed results covering
// GridScenarios("fig4", opt) in order — the merge half of a sharded sweep.
// Because per-scenario seeds are content-derived and the result
// serialization round-trips float64 exactly, the output is byte-identical
// to Figure4Ctx evaluating the same options in-process.
func Figure4FromResults(opt Options, results []core.Result) (*report.Figure, error) {
	opt = opt.withDefaults()
	perPUD, err := sweepEstimates(opt, opt.PUDs[:1], results)
	if err != nil {
		return nil, err
	}
	return renderFigure4(opt, pointsFromEstimates(opt, perPUD[0])), nil
}

// renderFigure4 builds the figure from evaluated sweep points.
func renderFigure4(opt Options, points []sweepPoint) *report.Figure {
	pud := opt.PUDs[0]
	fig := &report.Figure{
		Title:  fmt.Sprintf("Figure 4: Steady-state percentages vs Power Down Threshold (PUD=%g s)", pud),
		XLabel: "Power Down Threshold (sec)",
		YLabel: "Percentage of time (%)",
	}
	for ei, est := range opt.Estimators {
		for _, s := range energy.States {
			x := make([]float64, len(points))
			y := make([]float64, len(points))
			for i, pt := range points {
				x[i] = pt.PDT
				y[i] = pt.Estimates[ei].Fractions[s] * 100
			}
			fig.AddSeries(fmt.Sprintf("%s/%s", est.Name(), s), x, y)
		}
	}
	return fig
}

// Figure5Ctx regenerates the energy sweep at the first configured PUD.
func Figure5Ctx(ctx context.Context, opt Options) (*report.Figure, error) {
	results, err := runGridCtx(ctx, opt, "fig5")
	if err != nil {
		return nil, err
	}
	return Figure5FromResults(opt, results)
}

// Figure5FromResults renders Figure 5 from precomputed results covering
// GridScenarios("fig5", opt) in order; see Figure4FromResults.
func Figure5FromResults(opt Options, results []core.Result) (*report.Figure, error) {
	opt = opt.withDefaults()
	perPUD, err := sweepEstimates(opt, opt.PUDs[:1], results)
	if err != nil {
		return nil, err
	}
	return renderFigure5(opt, pointsFromEstimates(opt, perPUD[0])), nil
}

// renderFigure5 builds the figure from evaluated sweep points.
func renderFigure5(opt Options, points []sweepPoint) *report.Figure {
	pud := opt.PUDs[0]
	fig := &report.Figure{
		Title:  fmt.Sprintf("Figure 5: Energy (J) vs Power Down Threshold (PUD=%g s, %g s horizon)", pud, opt.Base.SimTime),
		XLabel: "Power Down Threshold (sec)",
		YLabel: "Energy (Joules)",
	}
	for ei, est := range opt.Estimators {
		x := make([]float64, len(points))
		y := make([]float64, len(points))
		for i, pt := range points {
			x[i] = pt.PDT
			y[i] = pt.Estimates[ei].EnergyJ
		}
		fig.AddSeries(est.Name(), x, y)
	}
	return fig
}

// ---------------------------------------------------------------------------
// Tables 4 and 5: pairwise deviations across the PUD set

// Table4Ctx regenerates the steady-state-percentage deviation table: for
// each PUD, the mean over the PDT sweep of the summed absolute per-state
// differences (percentage points) between each pair of methods. The full
// PDT×PUD grid runs as one batch, so every (point, estimator) pair fans
// out over the worker pool at once (points shared with Figure 4/5 still
// come from the cache).
func Table4Ctx(ctx context.Context, opt Options) (*report.Table, error) {
	// Fail fast on a wrong estimator set before paying for the sweep.
	if err := requireThree(opt.withDefaults()); err != nil {
		return nil, err
	}
	results, err := runGridCtx(ctx, opt, "table4")
	if err != nil {
		return nil, err
	}
	return Table4FromResults(opt, results)
}

// Table4FromResults renders Table 4 from precomputed results covering
// GridScenarios("table4", opt) in order — the merge half of a sharded
// sweep, byte-identical to Table4Ctx evaluating the same options.
func Table4FromResults(opt Options, results []core.Result) (*report.Table, error) {
	opt = opt.withDefaults()
	if err := requireThree(opt); err != nil {
		return nil, err
	}
	perPUD, err := sweepEstimates(opt, opt.PUDs, results)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 4: Δ Steady State Percentages (%) for Varying Power Up Delay",
		"Power Up Delay (sec)",
		pairLabel(opt, pairNames[0]), pairLabel(opt, pairNames[1]), pairLabel(opt, pairNames[2]))
	for p, pud := range opt.PUDs {
		points := pointsFromEstimates(opt, perPUD[p])
		row := []string{fmt.Sprintf("%g", pud)}
		for _, pair := range pairNames {
			sum := 0.0
			for _, pt := range points {
				sum += sumAbsFractionDiff(pt.Estimates[pair[0]], pt.Estimates[pair[1]])
			}
			row = append(row, report.F(sum/float64(len(points)), 3))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// runGridCtx evaluates a sweep artifact's whole scenario grid as one
// batch.
func runGridCtx(ctx context.Context, opt Options, name string) ([]core.Result, error) {
	opt = opt.withDefaults()
	scenarios, err := GridScenarios(name, opt)
	if err != nil {
		return nil, err
	}
	r, err := newSweepRunner(opt)
	if err != nil {
		return nil, err
	}
	results, err := r.RunAll(ctx, scenarios)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s grid: %w", name, err)
	}
	return results, nil
}

// Table5Ctx regenerates the energy deviation table: mean over the PDT
// sweep of the absolute energy difference (Joules) between each pair of
// methods. Like Table4Ctx it evaluates the whole grid as one batch.
func Table5Ctx(ctx context.Context, opt Options) (*report.Table, error) {
	// Fail fast on a wrong estimator set before paying for the sweep.
	if err := requireThree(opt.withDefaults()); err != nil {
		return nil, err
	}
	results, err := runGridCtx(ctx, opt, "table5")
	if err != nil {
		return nil, err
	}
	return Table5FromResults(opt, results)
}

// Table5FromResults renders Table 5 from precomputed results covering
// GridScenarios("table5", opt) in order; see Table4FromResults.
func Table5FromResults(opt Options, results []core.Result) (*report.Table, error) {
	opt = opt.withDefaults()
	if err := requireThree(opt); err != nil {
		return nil, err
	}
	perPUD, err := sweepEstimates(opt, opt.PUDs, results)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 5: Δ Energy Consumption (Joules) for Varying Power Up Delay",
		"Power Up Delay (sec)",
		pairLabel(opt, pairNames[0]), pairLabel(opt, pairNames[1]), pairLabel(opt, pairNames[2]))
	for p, pud := range opt.PUDs {
		points := pointsFromEstimates(opt, perPUD[p])
		row := []string{fmt.Sprintf("%g", pud)}
		for _, pair := range pairNames {
			sum := 0.0
			for _, pt := range points {
				sum += abs(pt.Estimates[pair[0]].EnergyJ - pt.Estimates[pair[1]].EnergyJ)
			}
			row = append(row, report.F(sum/float64(len(points)), 3))
		}
		t.AddRow(row...)
	}
	return t, nil
}
