package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/network"
	"repro/internal/petri"
	"repro/internal/report"
	"repro/internal/sensornode"
	"repro/internal/workload"
)

// ErlangAblationCtx (X-1) quantifies how many Erlang phases a Markov chain
// needs before constant delays stop hurting it: at the largest configured
// PUD it compares the plain supplementary-variable model and ErlangMarkov
// with growing K against a high-precision simulation. It runs through
// Runner.RunBatch: all methods evaluate concurrently on the worker pool
// against one fixed-seed scenario (seed derivation off, so every method
// sees the configuration's own seed — the historical cross-method
// comparability contract), repeated points are answered from the
// process-wide result cache, and a cancelled context aborts the
// simulations mid-replication.
func ErlangAblationCtx(ctx context.Context, opt Options, ks []int) (*report.Table, error) {
	opt = opt.withDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	cfg := opt.Base
	cfg.PUD = opt.PUDs[len(opt.PUDs)-1]
	ests := make([]core.Estimator, 0, len(ks)+3)
	ests = append(ests, core.Simulation{}, core.Markov{})
	for _, k := range ks {
		ests = append(ests, core.ErlangMarkov{K: k})
	}
	ests = append(ests, core.PetriNet{})
	r, err := core.NewRunner(
		core.WithConfig(cfg),
		core.WithEstimators(ests...),
		core.WithParallelism(opt.Parallelism),
		core.WithSeedDerivation(false),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res, err := r.Run(ctx, core.Scenario{Name: "erlang-ablation"})
	if err != nil {
		return nil, fmt.Errorf("experiments: erlang ablation: %w", err)
	}
	ref := res.Estimates[0] // Simulation, the reference
	t := report.NewTable(
		fmt.Sprintf("X-1: Erlang-phase ablation at PUD=%g s, PDT=%g s (reference: simulation)", cfg.PUD, cfg.PDT),
		"Method", "Σ|Δ fraction| vs Sim (pp)", "Energy (J)", "|Δ energy| vs Sim (J)")
	add := func(name string, est *core.Estimate) {
		t.AddRow(name,
			report.F(sumAbsFractionDiff(ref, est), 3),
			report.F(est.EnergyJ, 3),
			report.F(abs(est.EnergyJ-ref.EnergyJ), 3))
	}
	add("Markov (supplementary variables)", res.Estimates[1])
	for i := range ks {
		add(res.Estimates[2+i].Method, res.Estimates[2+i])
	}
	add("PetriNet (DSPN simulation)", res.Estimates[len(res.Estimates)-1])
	return t, nil
}

// PolicyAblation (X-2) compares power-management policies on the paper's
// workload: never sleeping, the paper's timeout, and immediate sleep —
// the energy/latency trade-off that motivates the Power Down Threshold.
func PolicyAblation(opt Options) (*report.Table, error) {
	opt = opt.withDefaults()
	base := opt.Base
	t := report.NewTable(
		fmt.Sprintf("X-2: Power-policy ablation (lambda=%g, mu=%g, PUD=%g s, %g s horizon)",
			base.Lambda, base.Mu, base.PUD, base.SimTime),
		"Policy", "Energy (J)", "Mean latency (s)", "Power cycles/s", "Standby (%)", "Idle (%)")
	policies := []struct {
		name   string
		policy cpu.Policy
		pdt    float64
	}{
		{"never-sleep (M/M/1)", cpu.PolicyNeverSleep, base.PDT},
		{fmt.Sprintf("timeout PDT=%g s", base.PDT), cpu.PolicyTimeout, base.PDT},
		{"always-sleep (PDT=0)", cpu.PolicyAlwaysSleep, 0},
	}
	reps := base.Replications
	if reps == 0 {
		reps = 10
	}
	for _, p := range policies {
		rep, err := cpu.RunReplications(cpu.Config{
			Arrivals: workload.NewPoisson(base.Lambda),
			Service:  dist.ExpMean(1 / base.Mu),
			PDT:      p.pdt,
			PUD:      base.PUD,
			Policy:   p.policy,
			SimTime:  base.SimTime,
			Warmup:   base.Warmup,
			Seed:     base.Seed,
		}, reps)
		if err != nil {
			return nil, err
		}
		f := rep.MeanFractions()
		t.AddRow(p.name,
			report.F(rep.EnergyJoules(base.Power, base.SimTime), 3),
			report.F(rep.MeanLatency.Mean(), 4),
			report.F(rep.PowerCycles.Mean()/base.SimTime, 4),
			report.F(f[energy.Standby]*100, 2),
			report.F(f[energy.Idle]*100, 2))
	}
	return t, nil
}

// WorkloadComparisonCtx (X-3) contrasts the open Poisson workload with
// periodic, bursty (MMPP) and closed generators at matched average rates,
// showing how burstiness shifts the energy budget. It runs through
// Runner.RunBatch: the workload rows are workloadEstimator instances
// evaluating concurrently on the worker pool against one fixed-seed
// scenario, cached process-wide, and cancellable mid-replication.
func WorkloadComparisonCtx(ctx context.Context, opt Options) (*report.Table, error) {
	opt = opt.withDefaults()
	base := opt.Base
	kinds := []workloadKind{wlPoisson, wlPeriodic, wlMMPP}
	if think := 1/base.Lambda - 1/base.Mu; think > 0 {
		kinds = append(kinds, wlClosed)
	}
	ests := make([]core.Estimator, len(kinds))
	for i, k := range kinds {
		ests[i] = workloadEstimator{kind: k}
	}
	r, err := core.NewRunner(
		core.WithConfig(base),
		core.WithEstimators(ests...),
		core.WithParallelism(opt.Parallelism),
		core.WithSeedDerivation(false),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	res, err := r.Run(ctx, core.Scenario{Name: "workload-comparison"})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload comparison: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("X-3: Workload comparison (rate≈%g/s, PDT=%g s, PUD=%g s)", base.Lambda, base.PDT, base.PUD),
		"Workload", "Energy (J)", "Mean latency (s)", "Standby (%)", "Idle (%)", "Active (%)")
	for i, k := range kinds {
		est := res.Estimates[i]
		f := est.Fractions
		t.AddRow(workloadEstimator{kind: k}.rowLabel(base),
			report.F(est.EnergyJ, 3),
			report.F(est.MeanLatency, 4),
			report.F(f[energy.Standby]*100, 2),
			report.F(f[energy.Idle]*100, 2),
			report.F(f[energy.Active]*100, 2))
	}
	return t, nil
}

// CTMCCrossCheck (X-4) validates the numerical pipeline: the
// exponentialized Figure-3 net solved exactly (reachability graph -> CTMC)
// against its own simulation and the independently built Erlang(K=1) chain.
func CTMCCrossCheck(opt Options) (*report.Table, error) {
	opt = opt.withDefaults()
	cfg := opt.Base
	cfg.PUD = 0.3
	const queueCap = 40
	n := core.BuildCPUNetExp(cfg, queueCap)
	exact, err := petri.SolveCTMC(n, petri.ReachOptions{})
	if err != nil {
		return nil, err
	}
	sim, err := petri.Simulate(n, petri.SimOptions{Seed: cfg.Seed, Warmup: cfg.Warmup, Duration: cfg.SimTime * 20})
	if err != nil {
		return nil, err
	}
	erl, err := (core.ErlangMarkov{K: 1}).Estimate(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("X-4: exponentialized CPU net, exact CTMC (%d tangible markings) vs simulation vs Erlang(K=1)", len(exact.Markings)),
		"State", "CTMC exact", "Net simulation", "ErlangMarkov K=1")
	places := map[energy.State]string{
		energy.Standby: core.PlaceStandBy,
		energy.PowerUp: core.PlacePowerUp,
		energy.Idle:    core.PlaceIdle,
		energy.Active:  core.PlaceActive,
	}
	for _, s := range energy.States {
		t.AddRow(s.String(),
			report.F(exact.PlaceAvgByName(n, places[s]), 5),
			report.F(sim.PlaceAvgByName(n, places[s]), 5),
			report.F(erl.Fractions[s], 5))
	}
	return t, nil
}

// NetworkLifetime (X-9) analyzes multi-hop topologies: per-node load grows
// toward the sink, so lifetime is set by the most burdened node (the sink
// under a CPU-dominated budget; the first relay when the radio dominates).
func NetworkLifetime(opt Options) (*report.Table, error) {
	opt = opt.withDefaults()
	t := report.NewTable(
		"X-9: network lifetime by topology (0.5 samples/s per node, PXA271 + CC2420-class radio, 2xAA)",
		"Topology", "Nodes", "Bottleneck node", "Bottleneck load (jobs/s)", "Network lifetime (days)")
	topologies := []struct {
		name  string
		nodes []network.Node
	}{
		{"line x4", network.LineTopology(4, 0.5)},
		{"line x8", network.LineTopology(8, 0.5)},
		{"star x8", network.StarTopology(8, 0.5)},
		{"binary tree depth 3", network.BinaryTreeTopology(3, 0.5)},
	}
	for _, topo := range topologies {
		cfg := network.DefaultConfig(0)
		cfg.Nodes = topo.nodes
		cfg.CPU = opt.Base
		res, err := network.Analyze(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", topo.name, err)
		}
		var bottleneckLoad float64
		for _, nr := range res.Nodes {
			if nr.ID == res.Bottleneck {
				bottleneckLoad = nr.ProcessRate
			}
		}
		t.AddRow(topo.name,
			fmt.Sprintf("%d", len(topo.nodes)),
			fmt.Sprintf("%d", res.Bottleneck),
			report.F(bottleneckLoad, 2),
			report.F(res.LifetimeDays(), 1))
	}
	return t, nil
}

// LifetimeCtx (X-5) estimates whole-node battery lifetime across sensing
// loads using the composite CPU+radio net. It runs through
// Runner.RunBatch: one scenario per sensing load, evaluated concurrently
// on the worker pool by the composite-net lifetime estimator (fixed seeds,
// so the rows reproduce the sequential table bit for bit), cached
// process-wide, and cancellable mid-replication — the long sweeps that
// online battery-lifetime estimation needs.
func LifetimeCtx(ctx context.Context, opt Options, lambdas []float64) (*report.Table, error) {
	opt = opt.withDefaults()
	if len(lambdas) == 0 {
		lambdas = []float64{0.1, 0.5, 1, 2, 5}
	}
	base := sensornode.DefaultConfig()
	base.CPU = opt.Base
	r, err := core.NewRunner(
		core.WithConfig(opt.Base),
		core.WithEstimators(lifetimeEstimator{node: base}),
		core.WithParallelism(opt.Parallelism),
		core.WithSeedDerivation(false),
	)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	scenarios := make([]core.Scenario, len(lambdas))
	for i, lam := range lambdas {
		cfg := opt.Base
		cfg.Lambda = lam
		if lam >= cfg.Mu {
			cfg.Mu = lam * 10
		}
		scenarios[i] = core.Scenario{Name: fmt.Sprintf("lambda=%g", lam), Config: cfg}
	}
	results, err := r.RunAll(ctx, scenarios)
	if err != nil {
		return nil, fmt.Errorf("experiments: lifetime: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("X-5: sensor-node lifetime on %.0f mAh @ %.1f V (PDT=%g s)",
			base.Battery.CapacitymAh, base.Battery.Volts, base.CPU.PDT),
		"Arrival rate (/s)", "CPU avg (mW)", "Radio avg (mW)", "Total (mW)", "Packets/s", "Lifetime (days)")
	for i, lam := range lambdas {
		node := results[i].Estimates[0].Node
		t.AddRow(
			fmt.Sprintf("%g", lam),
			report.F(node.CPUAvgMW, 3),
			report.F(node.RadioAvgMW, 3),
			report.F(node.TotalAvgMW, 3),
			report.F(node.PacketsPerSecond, 3),
			report.F(node.LifetimeSeconds/86400, 1))
	}
	return t, nil
}
