// Package linalg provides the small amount of dense and sparse linear
// algebra needed to solve continuous-time Markov chains numerically:
// LU factorization with partial pivoting for direct steady-state solves,
// uniformized power iteration for large sparse generators, and basic vector
// utilities.
package linalg

import (
	"context"
	"fmt"
	"math"
)

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense allocates a zero matrix of the given shape.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFromRows builds a matrix from row slices, which must be non-empty
// and of equal length. The data is copied.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty row data")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns a new transposed matrix.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m * x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecMul returns x^T * m (left multiplication), the natural operation for
// probability row vectors.
func (m *Dense) VecMul(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: VecMul dimension mismatch: %d rows vs %d vec", m.Rows, len(x)))
	}
	y := make([]float64, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu    *Dense
	pivot []int
	sign  int
}

// Factorize computes the LU factorization of a square matrix. It returns an
// error if the matrix is singular to working precision.
func Factorize(a *Dense) (*LU, error) {
	return FactorizeContext(context.Background(), a)
}

// FactorizeContext is Factorize with cooperative cancellation: the O(n³)
// elimination polls the context every few columns and aborts mid-factorize
// with ctx.Err() when it is cancelled. It leaves a unmodified.
func FactorizeContext(ctx context.Context, a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cannot factorize %dx%d non-square matrix", a.Rows, a.Cols)
	}
	return factorizeInPlace(ctx, a.Clone())
}

// factorizeInPlace is FactorizeContext without the copy: it overwrites the
// square matrix lu with its factors and keeps it as the returned LU's
// storage.
func factorizeInPlace(ctx context.Context, lu *Dense) (*LU, error) {
	n := lu.Rows
	pivot := make([]int, n)
	sign := 1
	for k := 0; k < n; k++ {
		if k%solveCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Partial pivoting: find the largest magnitude in column k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if ab := math.Abs(lu.At(i, k)); ab > maxAbs {
				maxAbs, p = ab, i
			}
		}
		if maxAbs < 1e-300 {
			return nil, fmt.Errorf("linalg: matrix is singular at column %d", k)
		}
		pivot[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[k*n+j], lu.Data[p*n+j] = lu.Data[p*n+j], lu.Data[k*n+j]
			}
			sign = -sign
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) * inv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve returns the solution x of A x = b.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: Solve dimension mismatch: %d vs %d", len(b), n))
	}
	x := append([]float64(nil), b...)
	// Apply the row interchanges recorded during factorization; the stored
	// factors use fully swapped rows (LAPACK convention), so all swaps must
	// precede the substitution passes.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with the unit lower triangle.
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve is a convenience wrapper: factorize A and solve A x = b.
func Solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// ---------------------------------------------------------------------------
// Vector helpers

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm1 returns the L1 norm.
func Norm1(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-abs norm.
func NormInf(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		if ab := math.Abs(v); ab > s {
			s = ab
		}
	}
	return s
}

// Normalize1 scales a in place so its entries sum to 1 and returns a.
// It panics if the sum is zero or not finite.
func Normalize1(a []float64) []float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic(fmt.Sprintf("linalg: cannot normalize vector with sum %v", s))
	}
	for i := range a {
		a[i] /= s
	}
	return a
}
