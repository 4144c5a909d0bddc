// The petri subcommand is a generic stochastic Petri-net tool in the
// spirit of TimeNet: it loads a net from JSON, and simulates it, solves it
// exactly as a CTMC (when all timed transitions are exponential), analyzes
// its invariants, or renders it to Graphviz DOT:
//
//	wsnenergy petri -net cpu.json -time 1000 -reps 10   # simulate
//	wsnenergy petri -net cpu.json -solve                # exact CTMC analysis
//	wsnenergy petri -net cpu.json -invariants           # P/T-invariants
//	wsnenergy petri -net cpu.json -dot > cpu.dot        # visualization
//	wsnenergy petri -paper -dump > cpu.json             # emit the Figure-3 net
package main

import (
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/petri"
	"repro/internal/report"
)

func petriMain(args []string) {
	fs := newFlagSet("petri")
	var (
		netPath    = fs.String("net", "", "path to a net in JSON format")
		paper      = fs.Bool("paper", false, "use the paper's Figure-3 CPU net instead of -net")
		dump       = fs.Bool("dump", false, "print the net as JSON and exit")
		dot        = fs.Bool("dot", false, "print the net as Graphviz DOT and exit")
		invariants = fs.Bool("invariants", false, "print P- and T-invariants and exit")
		solve      = fs.Bool("solve", false, "solve exactly as a CTMC (exponential nets only)")
		transient  = fs.Bool("transient", false, "transient analysis: expected tokens on a time grid")
		step       = fs.Float64("step", 0, "transient grid step (default time/20)")
		simTime    = fs.Float64("time", 1000, "simulated duration (s)")
		warmup     = fs.Float64("warmup", 0, "warmup before measurement (s)")
		reps       = fs.Int("reps", 1, "independent replications")
		seed       = fs.Uint64("seed", 1, "random seed")
		lambda     = fs.Float64("lambda", 1, "arrival rate for -paper")
		mu         = fs.Float64("mu", 10, "service rate for -paper")
		pdt        = fs.Float64("pdt", 0.5, "power down threshold for -paper")
		pud        = fs.Float64("pud", 0.001, "power up delay for -paper")
	)
	parseFlags(fs, args)

	var n *petri.Net
	switch {
	case *paper:
		cfg := repro.PaperConfig()
		cfg.Lambda, cfg.Mu, cfg.PDT, cfg.PUD = *lambda, *mu, *pdt, *pud
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		n = repro.BuildCPUNet(cfg)
	case *netPath != "":
		data, err := os.ReadFile(*netPath)
		if err != nil {
			fatal(err)
		}
		n, err = petri.UnmarshalJSON(data)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("provide -net FILE or -paper (see -help)"))
	}

	switch {
	case *dump:
		data, err := petri.MarshalJSON(n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *dot:
		fmt.Print(petri.DOT(n))
	case *invariants:
		printInvariants(n)
	case *solve:
		solveCTMC(n)
	case *transient:
		gridStep := *step
		if gridStep <= 0 {
			gridStep = *simTime / 20
		}
		transientAnalysis(n, *seed, *simTime, gridStep, *reps)
	default:
		simulate(n, petri.SimOptions{Seed: *seed, Warmup: *warmup, Duration: *simTime}, *reps)
	}
}

func transientAnalysis(n *petri.Net, seed uint64, horizon, step float64, reps int) {
	if reps < 10 {
		reps = 200 // transient estimation needs replications, not duration
	}
	res, err := petri.SimulateTransient(n, petri.TransientOptions{
		Seed: seed, Horizon: horizon, Step: step, Replications: reps,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Transient analysis of %q: %d replications, grid step %g s\n\n", n.Name, res.Replications, step)
	cols := []string{"t (s)"}
	for _, p := range n.Places {
		cols = append(cols, p.Name)
	}
	t := report.NewTable("E[tokens] over time", cols...)
	for i, tm := range res.Times {
		row := []string{report.F(tm, 3)}
		for p := range n.Places {
			row = append(row, report.F(res.PlaceMean[p][i], 4))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.ASCII())
}

func printInvariants(n *petri.Net) {
	pinvs, err := petri.PInvariants(n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("P-invariants of %q (token-weighted place sums conserved by every firing):\n", n.Name)
	if len(pinvs) == 0 {
		fmt.Println("  (none)")
	}
	m0 := n.InitialMarking()
	for _, y := range pinvs {
		fmt.Printf("  %s = %d\n", weightedSum(y, func(p int) string { return n.Places[p].Name }), petri.InvariantValue(m0, y))
	}
	tinvs, err := petri.TInvariants(n)
	if err != nil {
		fatal(err)
	}
	fmt.Println("T-invariants (firing-count vectors that restore the marking):")
	if len(tinvs) == 0 {
		fmt.Println("  (none)")
	}
	for _, x := range tinvs {
		fmt.Printf("  %s\n", weightedSum(x, func(t int) string { return n.Transitions[t].Name }))
	}
}

// weightedSum renders an invariant as "2*a + b", skipping zero weights.
func weightedSum(weights []int, name func(int) string) string {
	var terms []string
	for i, w := range weights {
		switch w {
		case 0:
		case 1:
			terms = append(terms, name(i))
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", w, name(i)))
		}
	}
	return strings.Join(terms, " + ")
}

func solveCTMC(n *petri.Net) {
	res, err := petri.SolveCTMC(n, petri.ReachOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Exact CTMC solution of %q: %d tangible markings\n\n", n.Name, len(res.Markings))
	t := report.NewTable("Stationary place statistics", "Place", "E[tokens]", "P(non-empty)")
	for p, place := range n.Places {
		t.AddRow(place.Name, report.F(res.PlaceAvg[p], 6), report.F(res.PlaceNonEmpty[p], 6))
	}
	fmt.Print(t.ASCII())
	fmt.Println()
	tt := report.NewTable("Stationary transition throughput", "Transition", "Firings/s")
	for ti, tr := range n.Transitions {
		tt.AddRow(tr.Name, report.F(res.Throughput[ti], 6))
	}
	fmt.Print(tt.ASCII())
}

func simulate(n *petri.Net, opt petri.SimOptions, reps int) {
	rep, err := petri.SimulateReplications(n, opt, reps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Simulated %q: %d replications x %g s (warmup %g s)\n\n",
		n.Name, reps, opt.Duration, opt.Warmup)
	t := report.NewTable("Time-averaged place statistics", "Place", "E[tokens]", "±95%", "P(non-empty)")
	for p, place := range n.Places {
		t.AddRow(place.Name,
			report.F(rep.PlaceAvg[p].Mean(), 6),
			report.F(rep.PlaceAvg[p].CI(0.95), 6),
			report.F(rep.PlaceNonEmpty[p].Mean(), 6))
	}
	fmt.Print(t.ASCII())
	fmt.Println()
	tt := report.NewTable("Transition throughput", "Transition", "Firings/s", "±95%")
	for ti, tr := range n.Transitions {
		tt.AddRow(tr.Name,
			report.F(rep.Throughput[ti].Mean(), 6),
			report.F(rep.Throughput[ti].CI(0.95), 6))
	}
	fmt.Print(tt.ASCII())
	if rep.Deadlocks > 0 {
		fmt.Printf("\nwarning: %d/%d replications deadlocked\n", rep.Deadlocks, reps)
	}
}
