// Package markov provides the Markov-chain side of the paper's comparison:
// a general continuous-time Markov chain (CTMC) with steady-state and
// transient (uniformization) solvers, birth–death chains, the paper's
// closed-form supplementary-variable CPU model (equations 11–24), and an
// Erlang phase-type expansion of the CPU model that makes the deterministic
// delays Markovian (the paper's "future work" direction).
package markov

import (
	"context"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// CTMC is a continuous-time Markov chain under construction: named states
// plus transition rates. Build it incrementally with State and AddRate, then
// solve.
type CTMC struct {
	names   []string
	index   map[string]int
	entries []linalg.Coord
}

// NewCTMC returns an empty chain.
func NewCTMC() *CTMC {
	return &CTMC{index: map[string]int{}}
}

// State returns the index of the named state, creating it if needed.
func (c *CTMC) State(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	return i
}

// Name returns the name of state i.
func (c *CTMC) Name(i int) string { return c.names[i] }

// Lookup returns the index of a state that must already exist.
func (c *CTMC) Lookup(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// Len returns the number of states.
func (c *CTMC) Len() int { return len(c.names) }

// AddRate adds a transition rate from one named state to another. Rates
// accumulate if called repeatedly for the same pair.
func (c *CTMC) AddRate(from, to string, rate float64) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("markov: invalid rate %v from %q to %q", rate, from, to))
	}
	if rate == 0 {
		return
	}
	f, t := c.State(from), c.State(to)
	if f == t {
		return // self-loops do not affect a CTMC
	}
	c.entries = append(c.entries, linalg.Coord{Row: f, Col: t, Val: rate})
}

// Generator assembles the CSR generator matrix with diagonal completion.
func (c *CTMC) Generator() *linalg.CSR {
	n := len(c.names)
	if n == 0 {
		panic("markov: empty chain")
	}
	return generator(n, append(make([]linalg.Coord, 0, len(c.entries)+n), c.entries...))
}

// generator appends the diagonal to the off-diagonal rates of an n-state
// chain — each state's entry is minus its exit rates, summed in rate
// order — and assembles the CSR generator.
func generator(n int, rates []linalg.Coord) *linalg.CSR {
	exit := make([]float64, n)
	for _, e := range rates {
		exit[e.Row] += e.Val
	}
	for i := 0; i < n; i++ {
		rates = append(rates, linalg.Coord{Row: i, Col: i, Val: -exit[i]})
	}
	return linalg.NewCSR(n, n, rates)
}

// SteadyState solves for the stationary distribution, using a direct LU
// solve for small chains and uniformized power iteration for large ones.
func (c *CTMC) SteadyState() ([]float64, error) {
	return c.SteadyStateContext(context.Background())
}

// SteadyStateContext is SteadyState with cooperative cancellation threaded
// into the linear algebra: a cancelled context aborts the LU elimination or
// the power loop mid-iteration with ctx.Err(), not just up front.
func (c *CTMC) SteadyStateContext(ctx context.Context) ([]float64, error) {
	return linalg.Stationary(ctx, c.Generator())
}

// Transient computes the state distribution at time t from the initial
// distribution pi0 using uniformization (Jensen's method) with truncation
// error below eps (default 1e-12).
func (c *CTMC) Transient(pi0 []float64, t float64, eps float64) ([]float64, error) {
	return c.TransientContext(context.Background(), pi0, t, eps)
}

// TransientContext is Transient with cooperative cancellation: the
// uniformization loop polls the context every few matrix-vector products
// and aborts mid-solve with ctx.Err() when it is cancelled — for stiff
// chains (large lambda*t) the loop runs tens of thousands of products. The
// products alternate between two buffers, so allocations do not grow with
// t.
func (c *CTMC) TransientContext(ctx context.Context, pi0 []float64, t float64, eps float64) ([]float64, error) {
	n := c.Len()
	if len(pi0) != n {
		return nil, fmt.Errorf("markov: initial distribution has %d entries, want %d", len(pi0), n)
	}
	if t < 0 {
		return nil, fmt.Errorf("markov: negative time %v", t)
	}
	if eps <= 0 {
		eps = 1e-12
	}
	q := c.Generator()
	// Uniformization rate.
	lam := q.MaxExitRate()
	if lam == 0 || t == 0 {
		return append([]float64(nil), pi0...), nil
	}
	lam *= 1.02
	// v_k = pi0 * P^k with P = I + Q/lam; result = sum poisson(k; lam t) v_k.
	cols := q.Columns()
	v := append([]float64(nil), pi0...)
	next := make([]float64, n)
	out := make([]float64, n)
	// Poisson weights computed iteratively in log space to avoid overflow.
	lt := lam * t
	logw := -lt // log weight of k=0
	cum := 0.0
	for k := 0; ; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		w := math.Exp(logw)
		for i := range out {
			out[i] += w * v[i]
		}
		cum += w
		if 1-cum < eps && float64(k) > lt {
			break
		}
		if k > 10_000_000 {
			return nil, fmt.Errorf("markov: uniformization did not converge (lambda*t = %v)", lt)
		}
		// Advance v <- v P and the Poisson weight.
		cols.MulAddTo(next, v, v, lam)
		v, next = next, v
		logw += math.Log(lt) - math.Log(float64(k+1))
	}
	// Normalize away the truncated tail.
	return linalg.Normalize1(out), nil
}

// ---------------------------------------------------------------------------
// Birth–death chains

// BirthDeath solves the stationary distribution of a birth–death chain with
// n+1 states, birth rates birth[i] (i -> i+1, length n) and death rates
// death[i] (i+1 -> i, length n), via the closed-form product solution.
func BirthDeath(birth, death []float64) ([]float64, error) {
	if len(birth) != len(death) {
		return nil, fmt.Errorf("markov: birth/death length mismatch %d vs %d", len(birth), len(death))
	}
	n := len(birth)
	pi := make([]float64, n+1)
	pi[0] = 1
	for i := 0; i < n; i++ {
		if death[i] <= 0 {
			return nil, fmt.Errorf("markov: death rate %d must be positive, got %v", i, death[i])
		}
		if birth[i] < 0 {
			return nil, fmt.Errorf("markov: birth rate %d must be non-negative, got %v", i, birth[i])
		}
		pi[i+1] = pi[i] * birth[i] / death[i]
	}
	return linalg.Normalize1(pi), nil
}
