package cpu

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/stats"
)

// Replicated aggregates independent replications of a CPU simulation.
type Replicated struct {
	Replications int
	// Fractions summarizes the per-replication time share of each state.
	Fractions [energy.NumStates]stats.Summary
	// MeanJobs, MeanLatency and PowerCycles summarize the corresponding
	// per-replication results.
	MeanJobs    stats.Summary
	MeanLatency stats.Summary
	PowerCycles stats.Summary
}

// MeanFractions returns the across-replication mean of each state share.
func (r *Replicated) MeanFractions() energy.Fractions {
	var f energy.Fractions
	for i := range f {
		f[i] = r.Fractions[i].Mean()
	}
	return f
}

// FractionCI returns the 95% half-width for the given state's share.
func (r *Replicated) FractionCI(s energy.State) float64 {
	return r.Fractions[s].CI(0.95)
}

// EnergyJoules applies equation 25 to the mean fractions.
func (r *Replicated) EnergyJoules(p energy.PowerModel, seconds float64) float64 {
	return p.EnergyJoules(r.MeanFractions(), seconds)
}

// EnergyJoulesCI propagates the per-state confidence half-widths through
// the linear energy formula, giving a conservative half-width in Joules.
func (r *Replicated) EnergyJoulesCI(p energy.PowerModel, seconds float64) float64 {
	hw := 0.0
	for i := range r.Fractions {
		hw += r.Fractions[i].CI(0.95) * p.MW[i]
	}
	return hw * seconds / 1000
}

// RunReplications executes reps independent runs, deriving each stream from
// (cfg.Seed, replication index). Runs execute one after another on the
// calling goroutine and are folded in index order, so the aggregate is a
// pure function of (cfg, reps); parallelism belongs to the caller, such as
// a core.Runner running many scenarios at once.
//
// Caution: open-workload Sources may be stateful (an MMPP's phase, a
// trace's position) and are then shared across replications in index
// order, each run continuing where the previous one left the source.
func RunReplications(cfg Config, reps int) (*Replicated, error) {
	return RunReplicationsContext(context.Background(), cfg, reps)
}

// RunReplicationsContext is RunReplications with cooperative cancellation:
// every replication polls the context inside its event loop, so a cancelled
// context aborts the running replication mid-simulation and the call
// returns an error wrapping ctx.Err().
func RunReplicationsContext(ctx context.Context, cfg Config, reps int) (*Replicated, error) {
	if reps < 1 {
		return nil, fmt.Errorf("cpu: replications must be >= 1, got %d", reps)
	}
	out := &Replicated{Replications: reps}
	for rep := 0; rep < reps; rep++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(rep)*0x9e3779b97f4a7c15
		res, err := RunContext(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("cpu: replication %d: %w", rep, err)
		}
		for i := range res.Fractions {
			out.Fractions[i].Add(res.Fractions[i])
		}
		out.MeanJobs.Add(res.MeanJobs)
		out.MeanLatency.Add(res.MeanLatency)
		out.PowerCycles.Add(float64(res.PowerCycles))
	}
	return out, nil
}
