package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/petri"
	"repro/internal/report"
)

// Convergence (X-6) quantifies the paper's Section-6 caveat: "the drawback
// to Petri nets is their long simulation time that is required before the
// percentages stabilize. Evaluating a Markov model means just evaluating an
// analytical expression." At a small PUD the Markov closed form is
// essentially exact, so it serves as the reference; the table reports the
// Petri net's error and confidence width as the simulated horizon grows,
// along with measured wall-clock time — including the Markov evaluation
// time for contrast.
func Convergence(opt Options, horizons []float64) (*report.Table, error) {
	opt = opt.withDefaults()
	if len(horizons) == 0 {
		horizons = []float64{10, 100, 1000, 10000}
	}
	cfg := opt.Base
	cfg.PUD = 0.001 // regime where the closed form is exact
	ref, err := (core.Markov{}).Estimate(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("X-6: Petri-net convergence toward the exact solution (PDT=%g s, PUD=%g s, %d replications)",
			cfg.PDT, cfg.PUD, maxInt(cfg.Replications, 1)),
		"Method / horizon (s)", "Σ|Δ| vs exact (pp)", "Mean 95% CI (pp)", "Wall time")
	for _, h := range horizons {
		c := cfg
		c.SimTime = h
		c.Warmup = h / 10
		start := time.Now()
		pn, err := (core.PetriNet{}).Estimate(c)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		meanCI := 0.0
		for _, s := range energy.States {
			meanCI += pn.FractionsCI[s] * 100
		}
		meanCI /= float64(energy.NumStates)
		t.AddRow(
			fmt.Sprintf("PetriNet @ %g", h),
			report.F(sumAbsFractionDiff(ref, pn), 3),
			report.F(meanCI, 3),
			elapsed.Round(time.Microsecond).String())
	}
	start := time.Now()
	if _, err := (core.Markov{}).Estimate(cfg); err != nil {
		return nil, err
	}
	t.AddRow("Markov (closed form)", "0 (reference)", "-", time.Since(start).Round(time.Microsecond).String())
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Transient (X-7) shows the cold-start behaviour the steady-state tables
// hide: the expected token count of the power-state places of the Figure-3
// net over the first seconds after switch-on, computed by replicated
// transient simulation (TimeNet's transient analysis mode).
func Transient(opt Options, horizon float64, step float64, reps int) (*report.Figure, error) {
	opt = opt.withDefaults()
	if horizon <= 0 {
		horizon = 10
	}
	if step <= 0 {
		step = 0.25
	}
	if reps <= 0 {
		reps = 2000
	}
	cfg := opt.Base
	n := core.BuildCPUNet(cfg)
	res, err := petri.SimulateTransient(n, petri.TransientOptions{
		Seed:         cfg.Seed,
		Horizon:      horizon,
		Step:         step,
		Replications: reps,
	})
	if err != nil {
		return nil, err
	}
	fig := &report.Figure{
		Title: fmt.Sprintf("X-7: transient state probabilities from cold start (PDT=%g s, PUD=%g s, %d replications)",
			cfg.PDT, cfg.PUD, reps),
		XLabel: "time since switch-on (s)",
		YLabel: "probability",
	}
	for _, s := range []struct{ state, place string }{
		{"standby", core.PlaceStandBy},
		{"idle", core.PlaceIdle},
		{"active", core.PlaceActive},
	} {
		id, ok := n.PlaceByName(s.place)
		if !ok {
			return nil, fmt.Errorf("experiments: missing place %q", s.place)
		}
		fig.AddSeries(s.state, res.Times, res.PlaceMean[id])
	}
	return fig, nil
}
