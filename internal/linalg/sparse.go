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
	m.Columns().MulAddTo(y, y, x, 1)
	return y
}

// colWidth is how many entries of a column Columns keeps in the column's
// fixed-width slot. Most columns of the Erlang CPU generators hold a
// diagonal and two in-edges, so most fit; the rest spill into the overflow
// range.
const colWidth = 3

// colSlot is one column's first colWidth entries in ascending row order,
// padded with (row 0, value 0), and how many more entries the column keeps
// in the overflow range.
type colSlot struct {
	row [colWidth]int32
	nov int32
	val [colWidth]float64
}

// Columns is a CSR matrix m in the column-major layout of the gather
// kernel behind x^T * m: column j's first colWidth entries in slots[j],
// the next slots[j].nov in the overflow range ovRow/ovVal, which holds the
// columns' spills back to back in column order, all in ascending row order
// (a row that repeats a column keeps its CSR order). Build it once per
// matrix with (*CSR).Columns and reuse it across products.
//
// Each entry of the product adds the same terms in the same order as
// scattering the rows of m into a zeroed vector, so the two agree bit for
// bit while m and x are finite: the pad terms and the terms of zero
// entries of x, which a scatter skips, are ±0, and adding ±0 to an
// accumulator that starts at +0 leaves it unchanged (it can never become
// −0).
type Columns struct {
	rowsN int
	slots []colSlot
	ovRow []int32
	ovVal []float64
}

// Columns builds m's gather layout.
func (m *CSR) Columns() *Columns {
	if m.RowsN > math.MaxInt32 || m.NNZ() > math.MaxInt32 {
		panic(fmt.Sprintf("linalg: %dx%d matrix with %d entries too large for Columns", m.RowsN, m.ColsN, m.NNZ()))
	}
	c := &Columns{rowsN: m.RowsN, slots: make([]colSlot, m.ColsN)}
	ovPtr := make([]int32, m.ColsN+1) // column j spills to ovPtr[j]:ovPtr[j+1]
	fill := make([]int32, m.ColsN)
	for _, j := range m.ColIdx {
		if fill[j]++; fill[j] > colWidth {
			ovPtr[j+1]++
			c.slots[j].nov++
		}
	}
	for j := 0; j < m.ColsN; j++ {
		ovPtr[j+1] += ovPtr[j]
	}
	c.ovRow = make([]int32, ovPtr[m.ColsN])
	c.ovVal = make([]float64, ovPtr[m.ColsN])
	clear(fill)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j, v := m.ColIdx[k], m.Val[k]
			if p := fill[j]; p < colWidth {
				c.slots[j].row[p], c.slots[j].val[p] = int32(i), v
			} else {
				o := ovPtr[j] + p - colWidth
				c.ovRow[o], c.ovVal[o] = int32(i), v
			}
			fill[j]++
		}
	}
	return c
}

// MulAddTo writes dst = base + (x^T * m)/div and returns the sum of dst's
// entries, added in index order. With base = x it is one step x P of the
// uniformized chain P = I + m/div, which is how the iterative solvers call
// it; VecMul calls it with a zero base and div = 1, which leave the product
// exact. dst may alias base but not x. It allocates nothing.
func (c *Columns) MulAddTo(dst, base, x []float64, div float64) float64 {
	if len(x) != c.rowsN || len(dst) != len(c.slots) || len(base) != len(dst) {
		panic(fmt.Sprintf("linalg: MulAddTo dimension mismatch: %dx%d matrix, %d vec, %d base, %d dst",
			c.rowsN, len(c.slots), len(x), len(base), len(dst)))
	}
	// Locals, not fields: the stores to dst would otherwise reload c's
	// slice headers every column.
	slots, ovRow, ovVal := c.slots, c.ovRow, c.ovVal
	base = base[:len(dst)] // drops base's bounds check in the loop
	sum := 0.0
	o := 0 // the current column's first overflow entry
	for j := range dst {
		sl := &slots[j]
		s := 0.0 // one term per slot entry, colWidth of them
		s += x[sl.row[0]] * sl.val[0]
		s += x[sl.row[1]] * sl.val[1]
		s += x[sl.row[2]] * sl.val[2]
		for end := o + int(sl.nov); o < end; o++ {
			s += x[ovRow[o]] * ovVal[o]
		}
		v := base[j] + s/div
		dst[j] = v
		sum += v
	}
	return sum
}

// MaxExitRate returns the largest negated diagonal entry of a generator
// matrix, its fastest exit rate, or 0 when no state has one; uniformized
// solvers scale it a little to get their rate.
func (m *CSR) MaxExitRate() float64 {
	maxExit := 0.0
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				if r := -m.Val[k]; r > maxExit {
					maxExit = r
				}
			}
		}
	}
	return maxExit
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
// caller hostage until convergence. Each iteration gathers pi Q column by
// column from a column-major copy of Q built once per solve (Columns), and
// the loop swaps two vectors allocated up front, so its allocations do not
// grow with the iteration count. The iterates are bit-identical to the
// textbook loop that scatters the rows of Q into a fresh vector.
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
	maxExit := q.MaxExitRate()
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	if maxExit == 0 {
		// No transitions at all: any distribution is stationary; return uniform.
		return pi, nil
	}
	lambda := maxExit * 1.02
	// P = I + Q/lambda; power-iterate pi <- pi P = pi + (pi Q)/lambda,
	// gathering each entry of pi Q from Q's columns. Every operation keeps
	// the operands and order of the textbook loop (product, step, sum,
	// normalize), so the iterates are the same to the bit.
	cols := q.Columns()
	next := make([]float64, n)
	for iter := 0; iter < opt.MaxIter; iter++ {
		if iter%solveCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sum := cols.MulAddTo(next, pi, pi, lambda)
		if sum <= 0 || math.IsNaN(sum) {
			return nil, fmt.Errorf("linalg: power iteration diverged at iteration %d", iter)
		}
		// Normalize to fight drift.
		diff := 0.0
		for i, v := range next {
			v /= sum
			next[i] = v
			diff += math.Abs(v - pi[i])
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
