package linalg

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Coord is one non-zero entry of a sparse matrix in coordinate form.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix, the storage used for large CTMC
// generators built from Petri-net reachability graphs.
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int
	ColIdx       []int
	Val          []float64
}

// NewCSR builds a CSR matrix from coordinate entries. Duplicate (row, col)
// entries are summed.
func NewCSR(rows, cols int, entries []Coord) *CSR {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid CSR shape %dx%d", rows, cols))
	}
	es := append([]Coord(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	// Merge duplicates.
	merged := es[:0]
	for _, e := range es {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("linalg: CSR entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
		if n := len(merged); n > 0 && merged[n-1].Row == e.Row && merged[n-1].Col == e.Col {
			merged[n-1].Val += e.Val
		} else {
			merged = append(merged, e)
		}
	}
	m := &CSR{
		RowsN:  rows,
		ColsN:  cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, len(merged)),
		Val:    make([]float64, len(merged)),
	}
	for i, e := range merged {
		m.RowPtr[e.Row+1]++
		m.ColIdx[i] = e.Col
		m.Val[i] = e.Val
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec returns m * x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.ColsN {
		panic(fmt.Sprintf("linalg: CSR MulVec dimension mismatch: %d vs %d", m.ColsN, len(x)))
	}
	y := make([]float64, m.RowsN)
	for i := 0; i < m.RowsN; i++ {
		s := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = s
	}
	return y
}

// VecMul returns x^T * m.
func (m *CSR) VecMul(x []float64) []float64 {
	y := make([]float64, m.ColsN)
	m.VecMulTo(y, x)
	return y
}

// VecMulTo writes x^T * m into dst, which it zeroes first, and allocates
// nothing: the in-place kernel of the iterative solvers. dst must not alias
// x.
func (m *CSR) VecMulTo(dst, x []float64) {
	if len(x) != m.RowsN || len(dst) != m.ColsN {
		panic(fmt.Sprintf("linalg: CSR VecMul dimension mismatch: %dx%d matrix, %d vec, %d dst", m.RowsN, m.ColsN, len(x), len(dst)))
	}
	clear(dst)
	for i, xi := range x {
		m.scatterRow(dst, i, xi)
	}
}

// scatterRow adds xi times row i to dst, in the row's column order.
func (m *CSR) scatterRow(dst []float64, i int, xi float64) {
	if xi == 0 {
		return
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	vals := m.Val[lo:hi]
	for k, c := range m.ColIdx[lo:hi] {
		dst[c] += xi * vals[k]
	}
}

// ToDense expands the matrix; intended for tests and small systems.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Add(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// PowerOptions configures StationaryCTMCContext's power iteration.
type PowerOptions struct {
	MaxIter int     // maximum iterations (default 20000)
	Tol     float64 // L1 change between iterates that counts as converged (default 1e-13)
}

// solveCancelStride is how many iterations of a linear-algebra loop pass
// between context polls: each iteration already costs O(nnz) or O(n²), so
// the poll is invisible, but a cancelled solve still aborts within a few
// sweeps instead of running to convergence.
const solveCancelStride = 16

// StationaryCTMC solves pi Q = 0, sum(pi) = 1 for an irreducible CTMC
// generator Q given in CSR form (rows = source states, Q[i][j] = rate i->j,
// diagonal = -sum of row). It uniformizes Q into the DTMC P = I + Q/lambda
// and power-iterates pi <- pi P from the uniform vector until the L1 change
// between iterates drops below opt.Tol. If opt.MaxIter iterations pass
// without that, it returns the last iterate and no error: the caller cannot
// tell a converged vector from an unconverged one.
func StationaryCTMC(q *CSR, opt PowerOptions) ([]float64, error) {
	return StationaryCTMCContext(context.Background(), q, opt)
}

// StationaryCTMCContext is StationaryCTMC with cooperative cancellation:
// the power loop polls the context every few iterations and aborts mid-solve
// with ctx.Err() when it is cancelled, so a large chain does not hold its
// caller hostage until convergence. The loop rotates three vectors
// allocated up front, so its allocations do not grow with the iteration
// count.
func StationaryCTMCContext(ctx context.Context, q *CSR, opt PowerOptions) ([]float64, error) {
	if q.RowsN != q.ColsN {
		return nil, fmt.Errorf("linalg: generator must be square, got %dx%d", q.RowsN, q.ColsN)
	}
	n := q.RowsN
	if opt.MaxIter == 0 {
		opt.MaxIter = 20000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-13
	}
	// Uniformization rate: a bit above the largest exit rate.
	maxExit := 0.0
	for i := 0; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.ColIdx[k] == i {
				if r := -q.Val[k]; r > maxExit {
					maxExit = r
				}
			}
		}
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	if maxExit == 0 {
		// No transitions at all: any distribution is stationary; return uniform.
		return pi, nil
	}
	lambda := maxExit * 1.02
	// P = I + Q/lambda; power-iterate pi <- pi P = pi + (pi Q)/lambda. prod
	// holds pi Q for the current pi. Every operation keeps the operands and
	// order of the textbook loop (product, step, sum, normalize), so the
	// iterates are the same to the bit.
	next := make([]float64, n)
	prod := make([]float64, n)
	q.VecMulTo(prod, pi)
	for iter := 0; iter < opt.MaxIter; iter++ {
		if iter%solveCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sum := 0.0
		for i, v := range prod {
			v = pi[i] + v/lambda
			next[i] = v
			sum += v
		}
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("linalg: power iteration diverged at iteration %d", iter)
		}
		// Normalize to fight drift, scattering each finished entry into the
		// next iteration's product while it is at hand.
		clear(prod)
		diff := 0.0
		for i, v := range next {
			v /= sum
			next[i] = v
			diff += math.Abs(v - pi[i])
			q.scatterRow(prod, i, v)
		}
		pi, next = next, pi
		if diff < opt.Tol {
			return pi, nil
		}
	}
	return pi, nil
}

// directMaxStates is the largest chain Stationary solves with a dense LU
// factorization; past it the factorization's O(n²) memory and O(n³) time
// lose to power iteration.
const directMaxStates = 2000

// Stationary solves pi Q = 0, sum(pi) = 1 with the solver suited to the
// chain's size: StationaryCTMCDirectContext up to directMaxStates states,
// StationaryCTMCContext with default options beyond.
func Stationary(ctx context.Context, q *CSR) ([]float64, error) {
	if q.RowsN <= directMaxStates {
		return StationaryCTMCDirectContext(ctx, q)
	}
	return StationaryCTMCContext(ctx, q, PowerOptions{})
}

// StationaryCTMCDirect solves pi Q = 0 with a dense LU factorization by
// replacing one balance equation with the normalization constraint. Suitable
// for generators up to a few thousand states.
func StationaryCTMCDirect(q *CSR) ([]float64, error) {
	return StationaryCTMCDirectContext(context.Background(), q)
}

// StationaryCTMCDirectContext is StationaryCTMCDirect with cooperative
// cancellation threaded into the O(n³) factorization, which dominates the
// solve for the chains this path is chosen for. It factorizes the dense
// matrix it builds in place, without FactorizeContext's copy.
func StationaryCTMCDirectContext(ctx context.Context, q *CSR) ([]float64, error) {
	if q.RowsN != q.ColsN {
		return nil, fmt.Errorf("linalg: generator must be square, got %dx%d", q.RowsN, q.ColsN)
	}
	n := q.RowsN
	// Build A = Q^T with the last row replaced by ones; b = e_n.
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			a.Add(q.ColIdx[k], i, q.Val[k]) // transpose
		}
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := make([]float64, n)
	b[n-1] = 1
	f, err := factorizeInPlace(ctx, a)
	if err != nil {
		return nil, fmt.Errorf("linalg: direct stationary solve: %w", err)
	}
	pi := f.Solve(b)
	// Clamp tiny negatives from roundoff and renormalize.
	for i, v := range pi {
		if v < 0 && v > -1e-9 {
			pi[i] = 0
		} else if v < 0 {
			return nil, fmt.Errorf("linalg: stationary solution has negative probability %v at state %d", v, i)
		}
	}
	return Normalize1(pi), nil
}
