package experiments

// The field experiment family (X-10, X-11, X-12): network-scale questions
// the static analytic model cannot answer, evaluated on the event-driven
// field simulator. X-10 sweeps field size × sample rate through the core
// Runner — field estimators are registered core.Estimators, so the sweeps
// share the result cache, worker pool and cancellation with the paper
// sweeps — X-11 breaks down where the bottleneck node's energy goes, and
// X-12 starves the batteries so nodes actually die mid-run: it tabulates
// the measured death timeline, the traffic each death strands, and how far
// the surviving field keeps delivering as the topology decays.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/report"
)

// FieldSizes and FieldRates are the default X-10 sweep axes.
var (
	FieldSizes = []int{9, 25, 49}
	FieldRates = []float64{0.25, 0.5, 1.0}
)

// FieldLifetimeCtx simulates 4-ary-tree fields of the given sizes at the
// given per-node sample rates and tabulates time-to-first-node-death: one
// row per (size, rate) with the bottleneck node's draw, the sink's
// delivered throughput and the network lifetime.
func FieldLifetimeCtx(ctx context.Context, opt Options, sizes []int, rates []float64) (*report.Table, error) {
	opt = opt.withDefaults()
	if len(sizes) == 0 {
		sizes = FieldSizes
	}
	if len(rates) == 0 {
		rates = FieldRates
	}
	ests := make([]core.Estimator, len(sizes))
	for i, n := range sizes {
		ests[i] = field.DefaultEstimator(n)
	}
	r, err := core.NewRunner(
		core.WithConfig(opt.Base),
		core.WithEstimators(ests...),
		core.WithParallelism(opt.Parallelism),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	scenarios := make([]core.Scenario, len(rates))
	for i, rate := range rates {
		cfg := opt.Base
		cfg.Lambda = rate
		scenarios[i] = core.Scenario{Name: fmt.Sprintf("rate=%g", rate), Config: cfg}
	}
	results, err := r.RunAll(ctx, scenarios)
	if err != nil {
		return nil, fmt.Errorf("experiments: field sweep: %w", err)
	}
	t := report.NewTable(
		"X-10: simulated time to first node death vs field size and sample rate (4-ary tree, first-order radio, 2xAA)",
		"Nodes", "Sample rate (/s)", "Bottleneck draw (mW)", "Delivered (pkt/s)", "Network lifetime (days)")
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("experiments: field sweep %q: %w", res.Scenario.Name, res.Err)
		}
		for j, est := range res.Estimates {
			t.AddRow(
				fmt.Sprintf("%d", sizes[j]),
				report.F(rates[i], 2),
				report.F(est.Node.TotalAvgMW, 3),
				report.F(est.Node.PacketsPerSecond, 2),
				report.F(est.Node.LifetimeSeconds/86400, 1))
		}
	}
	return t, nil
}

// FieldDeathCtx simulates one n-node tree field on batteries starved to a
// small fraction of an AA pair — sized so the hottest nodes deplete around
// the middle of the horizon — and reports the measured death timeline: for
// each death, the exact battery-zero crossing (not event-quantized), the
// packets that died queued inside the node, and what the sink had received
// by then. The closing rows give the measured network lifetime (first
// death) and the field-wide drop accounting.
func FieldDeathCtx(ctx context.Context, opt Options, n int) (*report.Table, error) {
	opt = opt.withDefaults()
	if n <= 0 {
		n = 25
	}
	est := field.DefaultEstimator(n)
	nodes, err := est.Nodes(0.5)
	if err != nil {
		return nil, err
	}
	cfg := field.Config{
		Nodes: nodes,
		CPU:   opt.Base,
		Radio: est.Radio,
		// Size the budget so a node drawing roughly the PXA271 idle floor
		// dies ~40% into the run: small enough that depletion reshapes the
		// field, large enough that early trajectories are representative.
		Battery: starvedBattery(opt.Base.Power.MW[energy.Idle], opt.Base.Warmup+opt.Base.SimTime),
		Horizon: opt.Base.SimTime,
		Warmup:  opt.Base.Warmup,
		Seed:    opt.Base.Seed,
	}
	res, err := field.SimulateContext(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: field death: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("X-12: lifetime to first death, %d-node tree at 0.5 samples/s on %.2g mAh (measured lifetime %.1f s; %d of %d nodes died; %d pkt delivered, %d dropped in dying nodes, %d unroutable)",
			n, cfg.Battery.CapacitymAh, res.FirstDeathSeconds, len(res.Deaths), n,
			res.Delivered, res.DroppedInFlight, res.DroppedNoRoute),
		"Death", "Node", "Time (s)", "Of horizon", "Dropped with node", "Delivered before")
	byID := make(map[int]*field.NodeResult, len(res.Nodes))
	for i := range res.Nodes {
		byID[res.Nodes[i].ID] = &res.Nodes[i]
	}
	for i, d := range res.Deaths {
		delivered := uint64(0)
		if nr := byID[d.ID]; nr != nil {
			delivered = nr.DeliveredBefore
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", d.ID),
			report.F(d.Time, 3),
			fmt.Sprintf("%.1f%%", d.Time/(cfg.Warmup+cfg.Horizon)*100),
			fmt.Sprintf("%d", d.Dropped),
			fmt.Sprintf("%d", delivered))
	}
	if len(res.Deaths) == 0 {
		t.AddRow("-", "-", "no node died within the horizon", "-", "-", "-")
	}
	return t, nil
}

// starvedBattery sizes a battery (at 3 V) so a constant draw of floorMW
// milliwatts empties it 40% of the way through totalSeconds of simulation.
func starvedBattery(floorMW, totalSeconds float64) energy.Battery {
	j := floorMW / 1000 * totalSeconds * 0.4
	return energy.Battery{CapacitymAh: j / 3600 / 3 * 1000, Volts: 3}
}

// FieldBreakdownCtx simulates one n-node tree field and reports the energy
// breakdown of its hottest nodes — the bottleneck first — attributing each
// node's budget to CPU, transmit, receive, aggregation, sensing and
// listening.
func FieldBreakdownCtx(ctx context.Context, opt Options, n int) (*report.Table, error) {
	opt = opt.withDefaults()
	if n <= 0 {
		n = 25
	}
	est := field.DefaultEstimator(n)
	nodes, err := est.Nodes(0.5)
	if err != nil {
		return nil, err
	}
	cfg := field.Config{
		Nodes:   nodes,
		CPU:     opt.Base,
		Radio:   est.Radio,
		Battery: est.Battery,
		Horizon: opt.Base.SimTime,
		Warmup:  opt.Base.Warmup,
		Seed:    opt.Base.Seed,
	}
	res, err := field.SimulateContext(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: field breakdown: %w", err)
	}
	byDraw := make([]*field.NodeResult, len(res.Nodes))
	for i := range res.Nodes {
		byDraw[i] = &res.Nodes[i]
	}
	sort.Slice(byDraw, func(i, j int) bool {
		if byDraw[i].AvgPowerMW != byDraw[j].AvgPowerMW {
			return byDraw[i].AvgPowerMW > byDraw[j].AvgPowerMW
		}
		return byDraw[i].ID < byDraw[j].ID
	})
	top := len(byDraw)
	if top > 6 {
		top = 6
	}
	t := report.NewTable(
		fmt.Sprintf("X-11: bottleneck energy breakdown, %d-node tree at 0.5 samples/s (top %d nodes by draw; network lifetime %.1f days)",
			n, top, res.LifetimeDays()),
		"Node", "Processed (job/s)", "Tx (pkt/s)", "CPU (J)", "Radio (J)", "Draw (mW)", "Lifetime (days)")
	for _, nr := range byDraw[:top] {
		label := fmt.Sprintf("%d", nr.ID)
		if nr.ID == res.Bottleneck {
			label += " (bottleneck)"
		}
		t.AddRow(label,
			report.F(float64(nr.Processed)/res.Time, 2),
			report.F(float64(nr.TxPackets)/res.Time, 2),
			report.F(nr.CPUEnergyJ, 1),
			report.F(nr.RadioEnergyJ, 3),
			report.F(nr.AvgPowerMW, 3),
			report.F(nr.LifetimeDays(), 1))
	}
	return t, nil
}
