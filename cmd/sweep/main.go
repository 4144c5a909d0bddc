// Command sweep runs a two-dimensional (PDT x PUD) parameter sweep of the
// CPU energy model and emits one CSV row per grid point and estimator —
// the raw data behind Figures 4/5 and Tables 4/5, suitable for external
// plotting tools. Grid points are evaluated concurrently by the facade's
// Runner; Ctrl-C aborts the sweep mid-replication (the cancellation
// reaches the simulation event loops) while keeping every row already
// written.
//
// Usage:
//
//	sweep -pdts 0:1:0.1 -puds 0.001,0.3,10 -methods sim,markov,petri > grid.csv
//
// Methods are resolved through the estimator registry: sim, markov, petri,
// erlangK (e.g. erlang16), plus anything registered by extensions.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro"
	"repro/internal/energy"
)

func main() {
	var (
		pdts     = flag.String("pdts", "0:1:0.1", "PDT values: comma list or lo:hi:step range")
		puds     = flag.String("puds", "0.001,0.3,10", "PUD values: comma list or lo:hi:step range")
		methods  = flag.String("methods", "sim,markov,petri,erlang16", "comma list of registered methods: sim, markov, petri, erlangK")
		lambda   = flag.Float64("lambda", 1, "arrival rate (jobs/s)")
		mu       = flag.Float64("mu", 10, "service rate (jobs/s)")
		simTime  = flag.Float64("simtime", 1000, "measured horizon (s)")
		warmup   = flag.Float64("warmup", 100, "warmup (s)")
		reps     = flag.Int("reps", 10, "replications for stochastic methods")
		seed     = flag.Uint64("seed", 20080901, "master seed")
		parallel = flag.Int("parallel", 0, "concurrent (scenario, estimator) evaluations, the only parallelism (0 = all CPUs)")
	)
	flag.Parse()

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
	var specs []string
	for _, m := range strings.Split(*methods, ",") {
		specs = append(specs, strings.TrimSpace(m))
	}

	base := repro.PaperConfig()
	base.Lambda, base.Mu = *lambda, *mu
	base.SimTime, base.Warmup = *simTime, *warmup
	base.Replications = *reps
	base.Seed = *seed

	runner, err := repro.New(
		repro.WithConfig(base), // base.Seed doubles as the master seed
		repro.WithMethods(specs...),
		repro.WithParallelism(*parallel), // 0 = all CPUs; negative errors
	)
	if err != nil {
		fatal(err)
	}

	// One scenario per (PUD, PDT) grid point, PUD-major like the old
	// sequential loop so the CSV row order is unchanged.
	var scenarios []repro.Scenario
	for _, pud := range pudVals {
		for _, pdt := range pdtVals {
			cfg := base
			cfg.PDT, cfg.PUD = pdt, pud
			scenarios = append(scenarios, repro.Scenario{
				Name:   fmt.Sprintf("PDT=%g PUD=%g", pdt, pud),
				Config: cfg,
			})
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
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			emit(res)
			next++
		}
	}
	if firstErr != nil {
		fatal(firstErr)
	}
	if err := ctx.Err(); err != nil {
		fatal(fmt.Errorf("sweep interrupted after %d of %d grid points: %w", next, len(scenarios), err))
	}
}

// parseValues accepts "a,b,c" or "lo:hi:step".
func parseValues(spec string) ([]float64, error) {
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range must be lo:hi:step, got %q", spec)
		}
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || step <= 0 || hi < lo {
			return nil, fmt.Errorf("invalid range %q", spec)
		}
		var vals []float64
		// A small epsilon keeps the endpoint included despite rounding.
		for v := lo; v <= hi+step/1e9; v += step {
			vals = append(vals, v)
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
	if len(vals) == 0 {
		return nil, fmt.Errorf("no values in %q", spec)
	}
	return vals, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
