// The field subcommand simulates a whole sensor field on the event-driven
// internal/field simulator:
//
//	wsnenergy field -nodes 100 -topology tree -rate 0.5
//	wsnenergy field -nodes 25 -topology line -spacing 20 -format csv
//
// The headline metrics run through the Runner/RunBatch machinery (the
// field estimator is a registered method, so results hit the shared
// result cache); the per-node table comes from a direct simulation of the
// same field, with the analytic network model's CPU-only lifetime printed
// alongside as a sanity column.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"

	"repro"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/field"
	"repro/internal/network"
	"repro/internal/report"
)

func fieldMain(args []string) {
	fs := newFlagSet("field")
	var (
		nodes    = fs.Int("nodes", 100, "number of nodes in the field")
		topology = fs.String("topology", "tree", "topology: line, star or tree")
		fanout   = fs.Int("fanout", 4, "tree fanout")
		rate     = fs.Float64("rate", 0.05, "per-node sample rate (samples/s); keep nodes*rate below mu or the sink saturates")
		spacing  = fs.Float64("spacing", 10, "inter-node spacing / star radius (m)")
		simTime  = fs.Float64("simtime", 200, "measured horizon (s)")
		warmup   = fs.Float64("warmup", 20, "simulated warmup before measurement (s)")
		seed     = fs.Uint64("seed", 20080901, "master random seed")
		battery  = fs.Float64("battery", 2850, "per-node battery capacity in mAh at 3 V; starve it (fractions of a mAh) to watch nodes die and traffic reroute")
		top      = fs.Int("top", 10, "per-node table rows (hottest nodes first)")
		format   = fs.String("format", "text", "output format: text, csv or md")
	)
	parseFlags(fs, args)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := fieldRun(ctx, *nodes, *topology, *fanout, *rate, *spacing, *simTime, *warmup, *seed, *battery, *top, *format); err != nil {
		fatal(err)
	}
}

func fieldRun(ctx context.Context, nodes int, topology string, fanout int, rate, spacing, simTime, warmup float64, seed uint64, battery float64, top int, format string) error {
	est := field.DefaultEstimator(nodes)
	est.Topology = topology
	est.Fanout = fanout
	est.Spacing = spacing
	est.Battery = energy.Battery{CapacitymAh: battery, Volts: 3}

	cfg := repro.PaperConfig()
	cfg.Lambda = rate
	cfg.SimTime = simTime
	cfg.Warmup = warmup
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return err
	}

	// Headline numbers through the Runner: the estimator path RunBatch,
	// shards and caches use.
	r, err := core.NewRunner(core.WithConfig(cfg), core.WithEstimators(est))
	if err != nil {
		return err
	}
	results, err := r.RunAll(ctx, []core.Scenario{{Name: fmt.Sprintf("field n=%d rate=%g", nodes, rate)}})
	if err != nil {
		return err
	}
	if results[0].Err != nil {
		return results[0].Err
	}
	head := results[0].Estimates[0]

	// The same field once more, directly, for the per-node breakdown.
	placed, err := est.Nodes(rate)
	if err != nil {
		return err
	}
	res, err := field.SimulateContext(ctx, field.Config{
		Nodes:   placed,
		CPU:     cfg,
		Radio:   est.Radio,
		Battery: est.Battery,
		Horizon: simTime,
		Warmup:  warmup,
		Seed:    seed,
	})
	if err != nil {
		return err
	}

	// Analytic cross-check: the static network model with the same tree
	// and CPU parameters, radio zeroed (CPU-only lifetimes). It rejects
	// overloaded nodes, so a saturated field simply drops the column.
	analytic := map[int]float64{}
	analyticNet := math.NaN()
	{
		anNodes := make([]network.Node, len(placed))
		for i, n := range placed {
			parent := n.Parent
			if parent == n.ID {
				parent = -1
			}
			anNodes[i] = network.Node{ID: n.ID, Parent: parent, SampleRate: n.SampleRate}
		}
		an, err := network.Analyze(network.Config{
			Nodes:        anNodes,
			CPU:          cfg,
			TxTime:       1e-9,
			RxTime:       1e-9,
			ListenPeriod: 1,
			Battery:      est.Battery,
		})
		if err == nil {
			for _, nr := range an.Nodes {
				analytic[nr.ID] = nr.LifetimeSeconds
			}
			analyticNet = an.LifetimeSeconds
		}
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
	if top <= 0 || top > len(byDraw) {
		top = len(byDraw)
	}
	t := report.NewTable(
		fmt.Sprintf("Sensor field: %d nodes (%s), %g samples/s — lifetime %.1f days (bottleneck node %d), %.2f pkt/s delivered, %.1f J total",
			nodes, topology, rate, res.LifetimeDays(), res.Bottleneck, float64(res.Delivered)/res.Time, res.TotalEnergyJ),
		"Node", "Parent", "Processed (job/s)", "Tx (pkt/s)", "Rx (pkt/s)", "Draw (mW)", "Lifetime (days)", "Analytic CPU-only (days)")
	for _, nr := range byDraw[:top] {
		anCol := "n/a"
		if life, ok := analytic[nr.ID]; ok {
			anCol = report.F(life/86400, 1)
		}
		t.AddRow(
			fmt.Sprintf("%d", nr.ID),
			fmt.Sprintf("%d", nr.Parent),
			report.F(float64(nr.Processed)/res.Time, 2),
			report.F(float64(nr.TxPackets)/res.Time, 2),
			report.F(float64(nr.RxPackets)/res.Time, 2),
			report.F(nr.AvgPowerMW, 3),
			report.F(nr.LifetimeDays(), 1),
			anCol)
	}
	if err := emitTable(t, format); err != nil {
		return err
	}
	// When batteries actually ran out mid-run, append the measured death
	// timeline; a healthy field (the default AA pair) prints exactly the
	// table above and nothing more.
	if len(res.Deaths) > 0 {
		if format == "text" {
			fmt.Println()
		}
		dt := report.NewTable(
			fmt.Sprintf("Death timeline: first death at %.3f s (node %d); %d dropped in dying nodes, %d unroutable",
				res.FirstDeathSeconds, res.Bottleneck, res.DroppedInFlight, res.DroppedNoRoute),
			"Death", "Node", "Time (s)", "Dropped with node", "Delivered before")
		byID := map[int]*field.NodeResult{}
		for i := range res.Nodes {
			byID[res.Nodes[i].ID] = &res.Nodes[i]
		}
		for i, d := range res.Deaths {
			var delivered uint64
			if nr := byID[d.ID]; nr != nil {
				delivered = nr.DeliveredBefore
			}
			dt.AddRow(
				fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%d", d.ID),
				report.F(d.Time, 3),
				fmt.Sprintf("%d", d.Dropped),
				fmt.Sprintf("%d", delivered))
		}
		if err := emitTable(dt, format); err != nil {
			return err
		}
	}
	if format == "text" {
		fmt.Printf("\nRunner headline: bottleneck %.3f mW, network lifetime %.1f days, %.2f pkt/s at the sink",
			head.Node.TotalAvgMW, head.Node.LifetimeSeconds/86400, head.Node.PacketsPerSecond)
		if !math.IsNaN(analyticNet) {
			fmt.Printf(" (analytic CPU-only lifetime %.1f days)", analyticNet/86400)
		}
		fmt.Println()
	}
	return nil
}
