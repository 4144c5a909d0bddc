package petri

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/linalg"
)

// ErrNotMarkovian is returned by CTMC analysis when the net contains a
// timed transition whose delay is not exponential (e.g. the deterministic
// transitions of the paper's DSPN), which exact Markovian analysis cannot
// represent without state expansion.
var ErrNotMarkovian = errors.New("petri: net has non-exponential timed transitions; use Simulate or an Erlang phase expansion")

// ReachOptions bounds the reachability exploration.
type ReachOptions struct {
	// MaxMarkings caps the number of tangible markings explored
	// (default 200000). Exceeding the cap reports an unbounded or
	// too-large net.
	MaxMarkings int
	// MaxVanishingDepth caps consecutive immediate firings while
	// resolving a vanishing chain (default 10000).
	MaxVanishingDepth int
}

// CTMCResult is the exact stationary analysis of an exponential net.
type CTMCResult struct {
	// Markings lists the tangible markings (CTMC states).
	Markings []Marking
	// Generator is the CTMC generator over tangible markings.
	Generator *linalg.CSR
	// Pi is the stationary distribution over Markings.
	Pi []float64
	// PlaceAvg is the exact expected token count per place.
	PlaceAvg []float64
	// PlaceNonEmpty is the exact probability each place is non-empty.
	PlaceNonEmpty []float64
	// Throughput is the stationary firing rate per transition (timed and
	// immediate).
	Throughput []float64
}

// PlaceAvgByName returns the expected token count of the named place.
func (r *CTMCResult) PlaceAvgByName(n *Net, name string) float64 {
	id, ok := n.PlaceByName(name)
	if !ok {
		panic(fmt.Sprintf("petri: no place named %q", name))
	}
	return r.PlaceAvg[id]
}

// tangibleDist is a probability distribution over tangible markings reached
// after eliminating a vanishing chain, with the expected number of firings
// of each immediate transition along the way.
type tangibleDist struct {
	keys     []string
	markings []Marking
	probs    []float64
	immFires []float64 // indexed by TransitionID, expected firings
}

// SolveCTMC builds the tangible reachability graph of a net whose timed
// transitions are all exponential, eliminates vanishing markings on the
// fly, and solves the resulting CTMC for its stationary distribution.
func SolveCTMC(n *Net, opt ReachOptions) (*CTMCResult, error) {
	return SolveCTMCContext(context.Background(), n, opt)
}

// SolveCTMCContext is SolveCTMC with cooperative cancellation: the context
// is polled during reachability exploration (per frontier marking) and
// inside the stationary solve's linear-algebra iterations, so both halves
// of the analysis abort promptly with ctx.Err().
func SolveCTMCContext(ctx context.Context, n *Net, opt ReachOptions) (*CTMCResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	for i := range n.Transitions {
		tr := &n.Transitions[i]
		if tr.Kind != Timed {
			continue
		}
		if _, ok := tr.Delay.(dist.Exponential); !ok {
			return nil, fmt.Errorf("%w (transition %q has delay %s)", ErrNotMarkovian, tr.Name, tr.Delay)
		}
	}
	if opt.MaxMarkings == 0 {
		opt.MaxMarkings = 200000
	}
	if opt.MaxVanishingDepth == 0 {
		opt.MaxVanishingDepth = 10000
	}

	index := map[string]int{}
	var markings []Marking
	var frontier []int

	addTangible := func(m Marking) (int, error) {
		k := m.Key()
		if id, ok := index[k]; ok {
			return id, nil
		}
		if len(markings) >= opt.MaxMarkings {
			return -1, fmt.Errorf("petri: tangible marking cap %d exceeded; net may be unbounded (add place capacities)", opt.MaxMarkings)
		}
		id := len(markings)
		index[k] = id
		markings = append(markings, m.Clone())
		frontier = append(frontier, id)
		return id, nil
	}

	// Resolve the initial marking to its tangible distribution.
	init, err := resolveVanishing(n, n.InitialMarking(), opt.MaxVanishingDepth)
	if err != nil {
		return nil, err
	}
	for _, m := range init.markings {
		if _, err := addTangible(m); err != nil {
			return nil, err
		}
	}

	type flow struct {
		to   int
		rate float64
	}
	flows := map[int][]flow{}
	// immRate[t] accumulates, per source state, rate × expected immediate
	// firings; summed with pi later for throughput.
	nT := len(n.Transitions)
	immRatePerState := map[int][]float64{}

	for explored := 0; len(frontier) > 0; explored++ {
		if explored%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		m := markings[id]
		for ti := range n.Transitions {
			tr := &n.Transitions[ti]
			if tr.Kind != Timed || !n.Enabled(m, TransitionID(ti)) {
				continue
			}
			// Multi-server semantics scale the rate with the degree.
			rate := tr.Delay.(dist.Exponential).Rate * float64(n.EnablingDegree(m, TransitionID(ti)))
			next := m.Clone()
			n.Fire(next, TransitionID(ti))
			td, err := resolveVanishing(n, next, opt.MaxVanishingDepth)
			if err != nil {
				return nil, err
			}
			for i, tm := range td.markings {
				toID, err := addTangible(tm)
				if err != nil {
					return nil, err
				}
				flows[id] = append(flows[id], flow{to: toID, rate: rate * td.probs[i]})
			}
			acc := immRatePerState[id]
			if acc == nil {
				acc = make([]float64, nT)
				immRatePerState[id] = acc
			}
			for t2 := 0; t2 < nT; t2++ {
				acc[t2] += rate * td.immFires[t2]
			}
		}
	}

	// Assemble the generator.
	nStates := len(markings)
	var entries []linalg.Coord
	for from, fs := range flows {
		exit := 0.0
		for _, f := range fs {
			exit += f.rate
			if f.to != from {
				entries = append(entries, linalg.Coord{Row: from, Col: f.to, Val: f.rate})
			}
		}
		selfRate := 0.0
		for _, f := range fs {
			if f.to == from {
				selfRate += f.rate
			}
		}
		entries = append(entries, linalg.Coord{Row: from, Col: from, Val: -(exit - selfRate)})
	}
	q := linalg.NewCSR(nStates, nStates, entries)

	pi, err := linalg.Stationary(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("petri: stationary solve over %d tangible markings: %w", nStates, err)
	}

	res := &CTMCResult{
		Markings:      markings,
		Generator:     q,
		Pi:            pi,
		PlaceAvg:      make([]float64, len(n.Places)),
		PlaceNonEmpty: make([]float64, len(n.Places)),
		Throughput:    make([]float64, nT),
	}
	for s, m := range markings {
		for p, tokens := range m {
			res.PlaceAvg[p] += pi[s] * float64(tokens)
			if tokens > 0 {
				res.PlaceNonEmpty[p] += pi[s]
			}
		}
		for ti := range n.Transitions {
			tr := &n.Transitions[ti]
			if tr.Kind == Timed && n.Enabled(m, TransitionID(ti)) {
				res.Throughput[ti] += pi[s] * tr.Delay.(dist.Exponential).Rate *
					float64(n.EnablingDegree(m, TransitionID(ti)))
			}
		}
		if acc := immRatePerState[s]; acc != nil {
			for ti, v := range acc {
				res.Throughput[ti] += pi[s] * v
			}
		}
	}
	return res, nil
}

// resolveVanishing eliminates zero-time (immediate) firings starting from m,
// returning the probability distribution over the tangible markings reached
// plus the expected firing count of each immediate transition. Weighted
// immediate conflicts branch the distribution; cycles of vanishing markings
// are detected and reported as errors.
func resolveVanishing(n *Net, m Marking, maxDepth int) (*tangibleDist, error) {
	td := &tangibleDist{immFires: make([]float64, len(n.Transitions))}
	idx := map[string]int{}
	onPath := map[string]bool{}

	var walk func(cur Marking, prob float64, depth int) error
	walk = func(cur Marking, prob float64, depth int) error {
		if depth > maxDepth {
			return fmt.Errorf("petri: vanishing chain longer than %d (immediate livelock?) at marking %v", maxDepth, cur)
		}
		ids := n.EnabledImmediatesAtTopPriority(cur)
		if len(ids) == 0 {
			k := cur.Key()
			if i, ok := idx[k]; ok {
				td.probs[i] += prob
			} else {
				idx[k] = len(td.markings)
				td.keys = append(td.keys, k)
				td.markings = append(td.markings, cur.Clone())
				td.probs = append(td.probs, prob)
			}
			return nil
		}
		k := cur.Key()
		if onPath[k] {
			return fmt.Errorf("petri: cycle of vanishing markings at %v; exact elimination of immediate cycles is not supported", cur)
		}
		onPath[k] = true
		defer delete(onPath, k)
		total := 0.0
		for _, id := range ids {
			total += n.Transitions[id].Weight
		}
		for _, id := range ids {
			p := prob * n.Transitions[id].Weight / total
			td.immFires[id] += p
			next := cur.Clone()
			n.Fire(next, id)
			if err := walk(next, p, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(m, 1, 0); err != nil {
		return nil, err
	}
	return td, nil
}
