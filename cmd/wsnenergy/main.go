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
// Experiments, in the order of the artifacts table: table1 table2 table3
// fig4 fig5 table4 table5 erlang policy workload ctmc lifetime convergence
// transient network fieldlife fieldbreakdown fielddeath.
//
// The subcommands table adds field (field.go), grid (grid.go), petri
// (petri.go), and serve, work and sweep, which spread the sweep artifacts
// (fig4, fig5, table4, table5) across worker processes (sweepd.go):
//
//	wsnenergy field -nodes 100 -topology tree -rate 0.5
//	wsnenergy grid -pdts 0:1:0.1 -puds 0.001,0.3,10 > grid.csv
//	wsnenergy petri -paper -dot > cpu.dot
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

// subcommands are the verbs wsnenergy dispatches on; without one it runs
// experiments.
var subcommands = []struct {
	name string
	main func(args []string)
}{
	{"field", fieldMain},
	{"serve", serveMain},
	{"work", workMain},
	{"sweep", sweepMain},
	{"grid", gridMain},
	{"petri", petriMain},
}

// artifact is one regenerable table or figure: exactly one of table and
// figure is set.
type artifact struct {
	name   string
	table  func(context.Context, experiments.Options) (*report.Table, error)
	figure func(context.Context, experiments.Options) (*report.Figure, error)
}

// artifacts lists every artifact in the order -experiment all runs them.
var artifacts = []artifact{
	{name: "table1", table: func(context.Context, experiments.Options) (*report.Table, error) { return experiments.Table1(), nil }},
	{name: "table2", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.Table2(o.Base), nil
	}},
	{name: "table3", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.Table3(o.Base.Power), nil
	}},
	{name: "fig4", figure: experiments.Figure4Ctx},
	{name: "fig5", figure: experiments.Figure5Ctx},
	{name: "table4", table: experiments.Table4Ctx},
	{name: "table5", table: experiments.Table5Ctx},
	{name: "erlang", table: func(ctx context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.ErlangAblationCtx(ctx, o, nil)
	}},
	{name: "policy", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.PolicyAblation(o)
	}},
	{name: "workload", table: experiments.WorkloadComparisonCtx},
	{name: "ctmc", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.CTMCCrossCheck(o)
	}},
	{name: "lifetime", table: func(ctx context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.LifetimeCtx(ctx, o, nil)
	}},
	{name: "convergence", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.Convergence(o, nil)
	}},
	{name: "transient", figure: func(_ context.Context, o experiments.Options) (*report.Figure, error) {
		return experiments.Transient(o, 0, 0, 0)
	}},
	{name: "network", table: func(_ context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.NetworkLifetime(o)
	}},
	{name: "fieldlife", table: func(ctx context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.FieldLifetimeCtx(ctx, o, nil, nil)
	}},
	{name: "fieldbreakdown", table: func(ctx context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.FieldBreakdownCtx(ctx, o, 0)
	}},
	{name: "fielddeath", table: func(ctx context.Context, o experiments.Options) (*report.Table, error) {
		return experiments.FieldDeathCtx(ctx, o, 0)
	}},
}

// modelFlags groups the model-configuration flags. addRunFlags registers
// the ones every grid-evaluating command shares (the experiment runner,
// the `sweep` client and `grid`); addModelFlags adds the fixed operating
// point (-pdt, -pud), so a sweep submitted with the same flag values
// parameterizes exactly the grid a direct run would evaluate.
// Execution-local knobs (-parallel) are deliberately not model flags: a
// manifest records what to compute, each process decides how hard to run
// it.
type modelFlags struct {
	lambda, mu, pdt, pud, simTime, warmup *float64
	reps                                  *int
	seed                                  *uint64
}

func addRunFlags(fs *flag.FlagSet) *modelFlags {
	return &modelFlags{
		lambda:  fs.Float64("lambda", 1, "arrival rate (jobs/s)"),
		mu:      fs.Float64("mu", 10, "service rate (jobs/s); paper: mean service 0.1 s"),
		simTime: fs.Float64("simtime", 1000, "measured horizon (s), Table 2: 1000"),
		warmup:  fs.Float64("warmup", 100, "simulated warmup before measurement (s)"),
		reps:    fs.Int("reps", 10, "replications for stochastic estimators"),
		seed:    fs.Uint64("seed", 20080901, "master random seed"),
	}
}

func addModelFlags(fs *flag.FlagSet) *modelFlags {
	m := addRunFlags(fs)
	m.pdt = fs.Float64("pdt", 0.5, "power down threshold (s) for non-sweep experiments")
	m.pud = fs.Float64("pud", 0.001, "power up delay (s) for Figure 4/5 sweeps")
	return m
}

// config is the paper configuration with the shared flags applied.
func (m *modelFlags) config() repro.Config {
	cfg := repro.PaperConfig()
	cfg.Lambda, cfg.Mu, cfg.SimTime, cfg.Warmup = *m.lambda, *m.mu, *m.simTime, *m.warmup
	cfg.Replications, cfg.Seed = *m.reps, *m.seed
	return cfg
}

// options materializes the experiment options from the parsed flags.
func (m *modelFlags) options() (experiments.Options, error) {
	cfg := m.config()
	cfg.PDT, cfg.PUD = *m.pdt, *m.pud
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
		for _, sub := range subcommands {
			if sub.name == os.Args[1] {
				sub.main(os.Args[2:])
				return
			}
		}
	}
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	var (
		experiment = flag.String("experiment", "all", "comma-separated artifacts to regenerate, or all: "+strings.Join(names, ", "))
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
		verbs := make([]string, len(subcommands))
		for i, sub := range subcommands {
			verbs[i] = sub.name
		}
		fatal(fmt.Errorf("unknown subcommand %q (want one of %s, or only flags to run experiments)",
			flag.Arg(0), strings.Join(verbs, ", ")))
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

	if *experiment != "all" {
		names = strings.Split(*experiment, ",")
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

// run regenerates one artifact and writes it to stdout.
func run(ctx context.Context, name string, opt experiments.Options, format string, chartW, chartH int) error {
	for _, a := range artifacts {
		if a.name != name {
			continue
		}
		if a.figure != nil {
			fig, err := a.figure(ctx, opt)
			if err != nil {
				return err
			}
			return emitFigure(fig, format, chartW, chartH)
		}
		t, err := a.table(ctx, opt)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	}
	return fmt.Errorf("unknown experiment %q (try -experiment all)", name)
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
