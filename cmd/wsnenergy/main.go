// Command wsnenergy regenerates every table and figure of the paper
// "Energy Modeling of Processors in Wireless Sensor Networks based on Petri
// Nets" (Shareef & Zhu, 2008), plus the extension experiments documented in
// DESIGN.md.
//
// Usage:
//
//	wsnenergy -experiment all                 # everything, text format
//	wsnenergy -experiment fig5 -format csv    # one artifact as CSV
//	wsnenergy -experiment table4 -reps 30     # higher precision
//
// Experiments: table1 table2 table3 fig4 fig5 table4 table5
// erlang policy workload ctmc lifetime fieldlife fieldbreakdown fielddeath all
//
// Whole sensor fields are simulated with the `field` subcommand — see
// field.go:
//
//	wsnenergy field -nodes 100 -topology tree -rate 0.5
//
// The sweep artifacts (fig4, fig5, table4, table5) can also be spread
// across worker processes, on one machine or many, with the `serve`,
// `work` and `sweep` subcommands — see sweepd.go:
//
//	wsnenergy serve -listen 127.0.0.1:8080
//	wsnenergy work  -join http://127.0.0.1:8080
//	wsnenergy sweep -join http://127.0.0.1:8080 -experiment table4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro"
	"repro/internal/experiments"
	"repro/internal/report"
)

// modelFlags groups the model-configuration flags shared by the direct
// experiment runner and the `sweep` client, so a sweep submitted with the
// same flag values parameterizes exactly the grid a direct run would
// evaluate. Execution-local knobs (-parallel) are deliberately not model
// flags: a manifest records what to compute, each process decides how
// hard to run it.
type modelFlags struct {
	lambda, mu, pdt, pud, simTime, warmup *float64
	reps                                  *int
	seed                                  *uint64
}

// addModelFlags registers the model flags on a flag set.
func addModelFlags(fs *flag.FlagSet) *modelFlags {
	return &modelFlags{
		lambda:  fs.Float64("lambda", 1, "arrival rate (jobs/s)"),
		mu:      fs.Float64("mu", 10, "service rate (jobs/s); paper: mean service 0.1 s"),
		pdt:     fs.Float64("pdt", 0.5, "power down threshold (s) for non-sweep experiments"),
		pud:     fs.Float64("pud", 0.001, "power up delay (s) for Figure 4/5 sweeps"),
		simTime: fs.Float64("simtime", 1000, "measured horizon (s), Table 2: 1000"),
		warmup:  fs.Float64("warmup", 100, "simulated warmup before measurement (s)"),
		reps:    fs.Int("reps", 10, "replications for stochastic estimators"),
		seed:    fs.Uint64("seed", 20080901, "master random seed"),
	}
}

// options materializes the experiment options from the parsed flags.
func (m *modelFlags) options() (experiments.Options, error) {
	cfg := repro.PaperConfig()
	cfg.Lambda = *m.lambda
	cfg.Mu = *m.mu
	cfg.PDT = *m.pdt
	cfg.PUD = *m.pud
	cfg.SimTime = *m.simTime
	cfg.Warmup = *m.warmup
	cfg.Replications = *m.reps
	cfg.Seed = *m.seed
	if err := cfg.Validate(); err != nil {
		return experiments.Options{}, err
	}
	opt := experiments.Default()
	opt.Base = cfg
	opt.PUDs = []float64{*m.pud, 0.3, 10.0}
	if *m.pud != 0.001 {
		opt.PUDs = []float64{*m.pud}
	}
	return opt, nil
}

func main() {
	if len(os.Args) > 1 {
		args := os.Args[2:]
		switch os.Args[1] {
		case "field":
			fieldMain(args)
			return
		case "serve":
			serveMain(args)
			return
		case "work":
			workMain(args)
			return
		case "sweep":
			sweepMain(args)
			return
		}
	}
	var (
		experiment = flag.String("experiment", "all", "which artifact to regenerate (table1..table5, fig4, fig5, erlang, policy, workload, ctmc, lifetime, all)")
		format     = flag.String("format", "text", "output format: text, csv or md")
		model      = addModelFlags(flag.CommandLine)
		parallel   = flag.Int("parallel", 0, "concurrent (scenario, estimator) evaluations, the only parallelism (0 = all CPUs)")
		chartW     = flag.Int("chartwidth", 72, "ASCII chart width for figures in text mode")
		chartH     = flag.Int("chartheight", 20, "ASCII chart height")
	)
	flag.Parse()
	// flag.Parse stops at the first non-flag argument; anything left over
	// is a mistyped subcommand or a stray argument, never something to
	// ignore.
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unknown subcommand %q (want field, serve, work or sweep, or only flags to run experiments)", flag.Arg(0)))
	}

	// Ctrl-C aborts sweeps mid-replication via the Runner's context: the
	// cancellation reaches the simulation event loops, not just the
	// scenario boundaries.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt, err := model.options()
	if err != nil {
		fatal(err)
	}
	opt.Parallelism = *parallel

	names := strings.Split(*experiment, ",")
	if *experiment == "all" {
		names = []string{"table1", "table2", "table3", "fig4", "fig5", "table4", "table5",
			"erlang", "policy", "workload", "ctmc", "lifetime", "convergence", "transient", "network",
			"fieldlife", "fieldbreakdown", "fielddeath"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if err := run(ctx, strings.TrimSpace(name), opt, *format, *chartW, *chartH); err != nil {
			fatal(err)
		}
	}
}

func run(ctx context.Context, name string, opt experiments.Options, format string, chartW, chartH int) error {
	switch name {
	case "table1":
		return emitTable(experiments.Table1(), format)
	case "table2":
		return emitTable(experiments.Table2(opt.Base), format)
	case "table3":
		return emitTable(experiments.Table3(opt.Base.Power), format)
	case "fig4":
		fig, err := experiments.Figure4Ctx(ctx, opt)
		if err != nil {
			return err
		}
		return emitFigure(fig, format, chartW, chartH)
	case "fig5":
		fig, err := experiments.Figure5Ctx(ctx, opt)
		if err != nil {
			return err
		}
		return emitFigure(fig, format, chartW, chartH)
	case "table4":
		t, err := experiments.Table4Ctx(ctx, opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "table5":
		t, err := experiments.Table5Ctx(ctx, opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "erlang":
		t, err := experiments.ErlangAblationCtx(ctx, opt, nil)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "policy":
		t, err := experiments.PolicyAblation(opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "workload":
		t, err := experiments.WorkloadComparisonCtx(ctx, opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "ctmc":
		t, err := experiments.CTMCCrossCheck(opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "lifetime":
		t, err := experiments.LifetimeCtx(ctx, opt, nil)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "convergence":
		t, err := experiments.Convergence(opt, nil)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "transient":
		fig, err := experiments.Transient(opt, 0, 0, 0)
		if err != nil {
			return err
		}
		return emitFigure(fig, format, chartW, chartH)
	case "network":
		t, err := experiments.NetworkLifetime(opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "fieldlife":
		t, err := experiments.FieldLifetimeCtx(ctx, opt, nil, nil)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "fieldbreakdown":
		t, err := experiments.FieldBreakdownCtx(ctx, opt, 0)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "fielddeath":
		t, err := experiments.FieldDeathCtx(ctx, opt, 0)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	default:
		return fmt.Errorf("unknown experiment %q (try -experiment all)", name)
	}
}

func emitTable(t *report.Table, format string) error {
	switch format {
	case "text":
		fmt.Print(t.ASCII())
	case "csv":
		fmt.Print(t.CSV())
	case "md":
		fmt.Print(t.Markdown())
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

func emitFigure(f *report.Figure, format string, w, h int) error {
	switch format {
	case "text":
		fmt.Print(f.ASCIIChart(w, h))
	case "csv":
		fmt.Print(f.CSV())
	case "md":
		fmt.Printf("**%s**\n\n```\n%s```\n\nCSV:\n\n```\n%s```\n", f.Title, f.ASCIIChart(w, h), f.CSV())
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsnenergy:", err)
	os.Exit(1)
}
