// The grid subcommand runs a two-dimensional (PDT x PUD) parameter sweep
// of the CPU energy model and emits one CSV row per grid point and
// estimator — the raw data behind Figures 4/5 and Tables 4/5, suitable for
// external plotting tools:
//
//	wsnenergy grid -pdts 0:1:0.1 -puds 0.001,0.3,10 -methods sim,markov,petri > grid.csv
//
// Grid points are evaluated concurrently by the facade's Runner; Ctrl-C
// aborts the sweep mid-replication (the cancellation reaches the
// simulation event loops) while keeping every row already written.
// Methods are resolved through the estimator registry: sim, markov, petri,
// erlangK (e.g. erlang16), plus anything registered by extensions.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro"
	"repro/internal/energy"
	"repro/internal/experiments"
)

func gridMain(args []string) {
	fs := newFlagSet("grid")
	var (
		pdts     = fs.String("pdts", "0:1:0.1", "PDT values: comma list or lo:hi:step range")
		puds     = fs.String("puds", "0.001,0.3,10", "PUD values: comma list or lo:hi:step range")
		methods  = fs.String("methods", "sim,markov,petri,erlang16", "comma list of registered methods: sim, markov, petri, erlangK")
		model    = addRunFlags(fs)
		parallel = fs.Int("parallel", 0, "concurrent (scenario, estimator) evaluations, the only parallelism (0 = all CPUs)")
	)
	parseFlags(fs, args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	pdtVals, err := parseValues(*pdts)
	if err != nil {
		fatal(fmt.Errorf("-pdts: %w", err))
	}
	pudVals, err := parseValues(*puds)
	if err != nil {
		fatal(fmt.Errorf("-puds: %w", err))
	}
	base := model.config()
	runner, err := repro.New(
		repro.WithConfig(base),                             // base.Seed doubles as the master seed
		repro.WithMethods(strings.Split(*methods, ",")...), // specs are trimmed on lookup
		repro.WithParallelism(*parallel),                   // 0 = all CPUs; negative errors
	)
	if err != nil {
		fatal(err)
	}

	// One scenario per (PUD, PDT) grid point, PUD-major: the Table 4 grid
	// over the given axes.
	opt := experiments.Options{Base: base, PDTs: pdtVals, PUDs: pudVals}
	scenarios, err := experiments.GridScenarios("table4", opt)
	if err != nil {
		fatal(err)
	}
	// Every grid point is checked before the header is printed, so a bad
	// axis value leaves stdout empty instead of holding a truncated table.
	for _, s := range scenarios {
		if err := s.Config.Validate(); err != nil {
			fatal(fmt.Errorf("grid point %s: %w", s.Name, err))
		}
	}
	ch, err := runner.RunBatch(ctx, scenarios)
	if err != nil {
		fatal(err)
	}

	// Stream rows in grid order as soon as the next-in-order scenario
	// completes, so an interrupted or failing sweep keeps every row
	// already written instead of discarding the whole grid.
	fmt.Println("method,pdt,pud,standby,powerup,idle,active,energy_j,energy_ci_j,mean_jobs,mean_latency_s")
	pending := make(map[int]repro.Result)
	next := 0
	emit := func(res repro.Result) {
		for _, r := range res.Estimates {
			fmt.Printf("%s,%g,%g,%.6f,%.6f,%.6f,%.6f,%.4f,%.4f,%.5f,%.5f\n",
				r.Method, res.Scenario.Config.PDT, res.Scenario.Config.PUD,
				r.Fractions[energy.Standby], r.Fractions[energy.PowerUp],
				r.Fractions[energy.Idle], r.Fractions[energy.Active],
				r.EnergyJ, r.EnergyCIJ, r.MeanJobs, r.MeanLatency)
		}
	}
	var firstErr error
	for res := range ch {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		pending[res.Index] = res
		for res, ok := pending[next]; ok; res, ok = pending[next] {
			delete(pending, next)
			emit(res)
			next++
		}
	}
	if firstErr != nil {
		fatal(firstErr)
	}
	if err := ctx.Err(); err != nil {
		fatal(fmt.Errorf("grid interrupted after %d of %d grid points: %w", next, len(scenarios), err))
	}
}

// parseValues accepts "a,b,c" or "lo:hi:step". Range point i is lo+i·step
// rounded to the decimal places of lo and step, so "0:1:0.1" yields exactly
// the literals 0, 0.1, ..., 1 of the paper's PDT axis.
func parseValues(spec string) ([]float64, error) {
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range must be lo:hi:step, got %q", spec)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		// A small epsilon keeps the endpoint included despite rounding.
		n := math.Floor((hi-lo)/step+1e-9) + 1
		if err1 != nil || err2 != nil || err3 != nil || !(step > 0) || math.IsInf(step, 0) || !(hi >= lo) || !(n <= 1e6) {
			return nil, fmt.Errorf("invalid range %q", spec)
		}
		prec := max(decimals(lo), decimals(step))
		vals := make([]float64, int(n))
		for i := range vals {
			vals[i], _ = strconv.ParseFloat(strconv.FormatFloat(lo+float64(i)*step, 'f', prec, 64), 64)
		}
		return vals, nil
	}
	var vals []float64
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", f)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// decimals is the number of decimal places v needs to print exactly.
func decimals(v float64) int {
	_, frac, _ := strings.Cut(strconv.FormatFloat(v, 'f', -1, 64), ".")
	return len(frac)
}
