package markov

import (
	"context"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/linalg"
)

// ErlangCPU approximates the power-managed CPU as a true CTMC by replacing
// each deterministic delay with an Erlang-K phase chain of the same mean:
// the Power Down Threshold T becomes K exponential phases of rate K/T and
// the Power Up Delay D becomes K phases of rate K/D. As K grows the Erlang
// delay converges to the constant delay, so the chain converges to the
// paper's DSPN — this implements the "effective method of modeling constant
// delays in Markov chains" that the paper's conclusion calls for, and is
// ablated in experiment X-1.
type ErlangCPU struct {
	// Lambda, Mu, T, D are the CPUModel parameters.
	Lambda, Mu, T, D float64
	// K is the number of Erlang phases per deterministic delay (>= 1).
	K int
	// QueueCap truncates the job queue; 0 selects an automatic cap large
	// enough that the truncated tail mass is negligible at rho = Lambda/Mu.
	QueueCap int
}

// ErlangCPUResult is the stationary solution of the phase-expanded chain.
type ErlangCPUResult struct {
	// Fractions are the aggregated state probabilities.
	Fractions energy.Fractions
	// MeanJobs is the expected number of jobs in the system.
	MeanJobs float64
	// States is the size of the expanded chain.
	States int
}

// Solve builds and solves the phase-expanded CTMC.
//
// State encoding:
//
//	standby            — empty queue, powered down
//	powerup(j, n)      — wake-up phase j in 1..K with n >= 1 jobs queued
//	idle(j)            — powered on, empty queue, idle-timer phase j in 1..K
//	active(n)          — serving with n >= 1 jobs in system
func (e ErlangCPU) Solve() (*ErlangCPUResult, error) {
	return e.SolveContext(context.Background())
}

// SolveContext is Solve with cooperative cancellation threaded into the
// stationary solve. At large K the expanded chain has K*(queue cap+1)+K+1
// states and the solve dominates the call by orders of magnitude, so a
// cancelled context aborts mid-iteration instead of running to convergence.
func (e ErlangCPU) SolveContext(ctx context.Context) (*ErlangCPUResult, error) {
	c, err := e.chain()
	if err != nil {
		return nil, err
	}
	pi, err := linalg.Stationary(ctx, generator(c.n, c.rates))
	if err != nil {
		return nil, fmt.Errorf("markov: Erlang CPU steady state (%d states): %w", c.n, err)
	}

	// p returns the probability of a state slot, 0 for a state no
	// transition reaches (adding it changes no sum).
	p := func(slot int) float64 {
		if i := c.index[slot]; i >= 0 {
			return pi[i]
		}
		return 0
	}
	res := &ErlangCPUResult{States: c.n}
	res.Fractions[energy.Standby] = p(c.standby())
	for j := 1; j <= e.K; j++ {
		res.Fractions[energy.Idle] += p(c.idle(j))
		for n := 1; n <= c.qcap; n++ {
			pn := p(c.up(j, n))
			res.Fractions[energy.PowerUp] += pn
			res.MeanJobs += float64(n) * pn
		}
	}
	for n := 1; n <= c.qcap; n++ {
		pn := p(c.active(n))
		res.Fractions[energy.Active] += pn
		res.MeanJobs += float64(n) * pn
	}
	return res, nil
}

// erlangChain is the phase-expanded chain under construction. Every state
// has a fixed slot (standby, then idle(1..K), powerup(1..K, 1..qcap),
// active(1..qcap)); index maps a slot to its state number, assigned in
// order of first appearance in a transition, or -1 for a state no
// transition reaches.
type erlangChain struct {
	k, qcap int
	index   []int32
	n       int
	rates   []linalg.Coord // off-diagonal generator entries, in insertion order
}

func (c *erlangChain) standby() int     { return 0 }
func (c *erlangChain) idle(j int) int   { return j }
func (c *erlangChain) up(j, n int) int  { return c.k + (j-1)*c.qcap + n }
func (c *erlangChain) active(n int) int { return c.k + c.k*c.qcap + n }

// add records a transition at the given rate; a zero rate adds nothing and
// numbers neither state.
func (c *erlangChain) add(from, to int, rate float64) {
	if rate == 0 {
		return
	}
	c.rates = append(c.rates, linalg.Coord{Row: c.state(from), Col: c.state(to), Val: rate})
}

func (c *erlangChain) state(slot int) int {
	if c.index[slot] < 0 {
		c.index[slot] = int32(c.n)
		c.n++
	}
	return int(c.index[slot])
}

// chain validates e and builds its phase-expanded chain.
func (e ErlangCPU) chain() (*erlangChain, error) {
	if !(e.Lambda > 0) || !(e.Mu > 0) || math.IsInf(e.Mu, 0) {
		return nil, fmt.Errorf("markov: rates must be positive and finite (lambda=%v mu=%v)", e.Lambda, e.Mu)
	}
	rho := e.Lambda / e.Mu
	if rho >= 1 {
		return nil, fmt.Errorf("markov: unstable queue, rho = %v", rho)
	}
	if e.K < 1 {
		return nil, fmt.Errorf("markov: K must be >= 1, got %d", e.K)
	}
	if !(e.T >= 0) || !(e.D >= 0) || math.IsInf(e.T, 0) || math.IsInf(e.D, 0) {
		return nil, fmt.Errorf("markov: delays must be finite and non-negative (T=%v D=%v)", e.T, e.D)
	}
	if e.QueueCap < 0 {
		return nil, fmt.Errorf("markov: negative queue cap %d", e.QueueCap)
	}
	// Zero-valued delays collapse their phase chains entirely: D = 0 wakes
	// straight into service, T = 0 powers down the moment the queue empties.
	hasPowerUp := e.D > 0
	hasIdle := e.T > 0
	phD, phT := float64(e.K)/e.D, float64(e.K)/e.T
	if hasPowerUp && math.IsInf(phD, 0) || hasIdle && math.IsInf(phT, 0) {
		return nil, fmt.Errorf("markov: delay too short for %d phases (T=%v D=%v)", e.K, e.T, e.D)
	}
	qcap := e.QueueCap
	if qcap == 0 {
		// Choose so that rho^qcap is far below estimation noise, plus room
		// for the arrivals that pile up during the power-up delay.
		qcap = 30 + int(3*e.Lambda*e.D)
		for qcap < 4000 && math.Pow(rho, float64(qcap)) > 1e-12 {
			qcap++
		}
	}
	// One slot per state: standby, K idle phases, and K power-up phases
	// plus the active state at each queue length.
	if (float64(e.K)+1)*(float64(qcap)+1) > math.MaxInt32 {
		return nil, fmt.Errorf("markov: Erlang CPU chain with K=%d and queue cap %d is too large", e.K, qcap)
	}
	slots := (e.K + 1) * (qcap + 1)
	c := &erlangChain{
		k: e.K, qcap: qcap, index: make([]int32, slots),
		// At most two transitions leave a state, and generator appends
		// one diagonal entry per state.
		rates: make([]linalg.Coord, 0, 3*slots),
	}
	for i := range c.index {
		c.index[i] = -1
	}
	// Standby: an arrival starts the wake-up sequence (or service, with no
	// power-up delay).
	if hasPowerUp {
		c.add(c.standby(), c.up(1, 1), e.Lambda)
	} else {
		c.add(c.standby(), c.active(1), e.Lambda)
	}

	// Power-up phases: arrivals queue; phases advance; the last phase
	// turns the CPU on serving.
	if hasPowerUp {
		for j := 1; j <= e.K; j++ {
			for n := 1; n <= qcap; n++ {
				if n < qcap {
					c.add(c.up(j, n), c.up(j, n+1), e.Lambda)
				}
				next := c.active(n)
				if j < e.K {
					next = c.up(j+1, n)
				}
				c.add(c.up(j, n), next, phD)
			}
		}
	}

	// Active states: service completions and arrivals.
	afterLastJob := c.standby()
	if hasIdle {
		afterLastJob = c.idle(1)
	}
	for n := 1; n <= qcap; n++ {
		if n < qcap {
			c.add(c.active(n), c.active(n+1), e.Lambda)
		}
		if n > 1 {
			c.add(c.active(n), c.active(n-1), e.Mu)
		} else {
			c.add(c.active(1), afterLastJob, e.Mu)
		}
	}

	// Idle phases: an arrival returns to service; the timer expiring in
	// the last phase powers down.
	if hasIdle {
		for j := 1; j <= e.K; j++ {
			c.add(c.idle(j), c.active(1), e.Lambda)
			next := c.standby()
			if j < e.K {
				next = c.idle(j + 1)
			}
			c.add(c.idle(j), next, phT)
		}
	}
	return c, nil
}

// EnergyJoulesOver returns the equation-25 energy of the solved fractions
// over a fixed horizon.
func (r *ErlangCPUResult) EnergyJoulesOver(p energy.PowerModel, seconds float64) float64 {
	return p.EnergyJoules(r.Fractions, seconds)
}
