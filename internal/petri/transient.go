package petri

import (
	"context"
	"fmt"
	"math"

	"repro/internal/stats"
)

// TransientOptions configures transient (time-dependent) analysis by
// replicated simulation: the expected token count of every place is
// estimated on a regular time grid, TimeNet's "transient analysis" mode.
type TransientOptions struct {
	// Seed drives all sampling.
	Seed uint64
	// Horizon is the end of the observation window.
	Horizon float64
	// Step is the grid spacing; estimates are produced at 0, Step,
	// 2*Step, ..., Horizon.
	Step float64
	// Replications is the number of independent runs (default 100).
	Replications int
	// Memory selects the execution policy (default RaceEnable).
	Memory MemoryPolicy
	// MaxVanishingChain bounds zero-time firing chains (default 1e5).
	MaxVanishingChain int
}

// TransientResult holds per-grid-point expected token counts.
type TransientResult struct {
	// Times is the grid.
	Times []float64
	// PlaceMean[p][i] is the mean token count of place p at Times[i]
	// across replications.
	PlaceMean [][]float64
	// PlaceCI[p][i] is the 95% half-width of PlaceMean[p][i].
	PlaceCI [][]float64
	// Replications echoes the run count.
	Replications int
}

// MeanAt returns the estimated expected token count of the named place at
// the grid point nearest to t.
func (r *TransientResult) MeanAt(n *Net, name string, t float64) float64 {
	id, ok := n.PlaceByName(name)
	if !ok {
		panic(fmt.Sprintf("petri: no place named %q", name))
	}
	best, bestDist := 0, math.Inf(1)
	for i, gt := range r.Times {
		if d := math.Abs(gt - t); d < bestDist {
			best, bestDist = i, d
		}
	}
	return r.PlaceMean[id][best]
}

// SimulateTransient estimates E[tokens(p, t)] on a regular grid by running
// independent replications and sampling each trajectory at the grid
// points. Unlike Simulate, which time-averages one long run, this captures
// the transient approach to steady state from the initial marking. The net
// is compiled once and shared by all replications, which run one after
// another on the calling goroutine.
func SimulateTransient(n *Net, opt TransientOptions) (*TransientResult, error) {
	return SimulateTransientContext(context.Background(), n, opt)
}

// SimulateTransientContext is SimulateTransient with cooperative
// cancellation: a cancelled context aborts the running trajectory
// mid-replication with an error wrapping ctx.Err().
func SimulateTransientContext(ctx context.Context, n *Net, opt TransientOptions) (*TransientResult, error) {
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return c.SimulateTransientContext(ctx, opt)
}

// SimulateTransient is transient analysis of a compiled net; see the
// package-level SimulateTransient.
func (c *Compiled) SimulateTransient(opt TransientOptions) (*TransientResult, error) {
	return c.SimulateTransientContext(context.Background(), opt)
}

// SimulateTransientContext is Compiled.SimulateTransient with cooperative
// cancellation; see the package-level variant.
func (c *Compiled) SimulateTransientContext(ctx context.Context, opt TransientOptions) (*TransientResult, error) {
	n := c.net
	if opt.Horizon <= 0 {
		return nil, fmt.Errorf("petri: TransientOptions.Horizon must be positive, got %v", opt.Horizon)
	}
	if opt.Step <= 0 || opt.Step > opt.Horizon {
		return nil, fmt.Errorf("petri: TransientOptions.Step must be in (0, horizon], got %v", opt.Step)
	}
	if opt.Replications == 0 {
		opt.Replications = 100
	}
	if opt.Replications < 1 {
		return nil, fmt.Errorf("petri: replications must be >= 1, got %d", opt.Replications)
	}
	nGrid := int(opt.Horizon/opt.Step) + 1
	acc := make([][]stats.Summary, len(n.Places))
	for p := range acc {
		acc[p] = make([]stats.Summary, nGrid)
	}
	for rep := 0; rep < opt.Replications; rep++ {
		err := foldTrajectory(ctx, c, SimOptions{
			Seed:              opt.Seed + uint64(rep)*0x9e3779b97f4a7c15,
			Duration:          opt.Horizon,
			Memory:            opt.Memory,
			MaxVanishingChain: opt.MaxVanishingChain,
		}, opt.Step, acc)
		if err != nil {
			return nil, fmt.Errorf("petri: transient replication %d: %w", rep, err)
		}
	}
	res := &TransientResult{
		Times:        make([]float64, nGrid),
		PlaceMean:    make([][]float64, len(n.Places)),
		PlaceCI:      make([][]float64, len(n.Places)),
		Replications: opt.Replications,
	}
	for i := 0; i < nGrid; i++ {
		res.Times[i] = float64(i) * opt.Step
	}
	for p := range acc {
		res.PlaceMean[p] = make([]float64, nGrid)
		res.PlaceCI[p] = make([]float64, nGrid)
		for i := 0; i < nGrid; i++ {
			res.PlaceMean[p][i] = acc[p][i].Mean()
			res.PlaceCI[p][i] = acc[p][i].CI(0.95)
		}
	}
	return res, nil
}

// foldTrajectory runs one replication and adds the marking at each grid
// point to acc[p][i], using the right-continuous (cadlag) convention: a grid
// point that coincides exactly with an event time records the post-event
// marking; at t=0 the post-vanishing initial marking is used.
func foldTrajectory(ctx context.Context, c *Compiled, opt SimOptions, step float64, acc [][]stats.Summary) error {
	e, err := c.acquireEngine(ctx, opt)
	if err != nil {
		return err
	}
	defer c.releaseEngine(e)
	if err := e.start(); err != nil {
		return err
	}
	nGrid := len(acc[0])
	next := 0
	record := func(upTo float64) {
		for next < nGrid && float64(next)*step <= upTo {
			for p, tokens := range e.marking {
				acc[p][next].Add(float64(tokens))
			}
			next++
		}
	}
	record(0)
	for next < nGrid {
		t, id := e.nextTimed()
		if id < 0 {
			break // deadlock: marking persists
		}
		// Grid points strictly before the event keep the current marking.
		record(math.Nextafter(t, 0))
		if next >= nGrid {
			break
		}
		e.advanceTo(t)
		if err := e.fireTimed(int32(id)); err != nil {
			return err
		}
	}
	// Fill any remaining points with the final (absorbing) marking.
	record(math.Inf(1))
	return nil
}
