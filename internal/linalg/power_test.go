package linalg

// Bit-exactness and allocation tests for the in-place power iteration: the
// loop must return, bit for bit, what the allocating loop it replaced
// returned, and its allocations must not grow with the iteration count.

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// referenceVecMul is the allocating x^T * m kernel the power iteration used
// before VecMulTo: a fresh zero vector, rows in order, columns in CSR order.
func referenceVecMul(m *CSR, x []float64) []float64 {
	y := make([]float64, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[m.ColIdx[k]] += xi * m.Val[k]
		}
	}
	return y
}

// referenceStationary is the allocating power loop StationaryCTMCContext
// ran before it swapped two preallocated vectors: one fresh vector per
// iteration, the uniformization step, the normalizing sum and the
// normalize+diff pass each in a separate loop. It also returns how many
// iterations it ran.
func referenceStationary(q *CSR, opt PowerOptions) ([]float64, int) {
	n := q.RowsN
	if opt.MaxIter == 0 {
		opt.MaxIter = 20000
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-13
	}
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
	lambda := maxExit * 1.02
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		next := referenceVecMul(q, pi)
		for i := range next {
			next[i] = pi[i] + next[i]/lambda
		}
		sum := 0.0
		for _, v := range next {
			sum += v
		}
		diff := 0.0
		for i := range next {
			next[i] /= sum
			diff += math.Abs(next[i] - pi[i])
		}
		pi = next
		if diff < opt.Tol {
			return pi, iter + 1
		}
	}
	return pi, opt.MaxIter
}

// erlangGenerator builds the generator of markov.ErlangCPU's phase-expanded
// CPU chain (T, D > 0, automatic queue cap) with the same states, state
// order and rates: linalg cannot import markov, so the construction is
// mirrored here.
func erlangGenerator(lambda, mu, T, D float64, K int) *CSR {
	qcap := 30 + int(3*lambda*D)
	for qcap < 4000 && math.Pow(lambda/mu, float64(qcap)) > 1e-12 {
		qcap++
	}
	index := map[string]int{}
	state := func(name string) int {
		i, ok := index[name]
		if !ok {
			i = len(index)
			index[name] = i
		}
		return i
	}
	var entries []Coord
	add := func(from, to string, rate float64) {
		entries = append(entries, Coord{Row: state(from), Col: state(to), Val: rate})
	}
	idle := func(j int) string { return fmt.Sprintf("idle/%d", j) }
	up := func(j, n int) string { return fmt.Sprintf("up/%d/%d", j, n) }
	active := func(n int) string { return fmt.Sprintf("act/%d", n) }

	add("standby", up(1, 1), lambda)
	phD := float64(K) / D
	for j := 1; j <= K; j++ {
		for n := 1; n <= qcap; n++ {
			if n < qcap {
				add(up(j, n), up(j, n+1), lambda)
			}
			next := active(n)
			if j < K {
				next = up(j+1, n)
			}
			add(up(j, n), next, phD)
		}
	}
	for n := 1; n <= qcap; n++ {
		if n < qcap {
			add(active(n), active(n+1), lambda)
		}
		if n > 1 {
			add(active(n), active(n-1), mu)
		} else {
			add(active(1), idle(1), mu)
		}
	}
	phT := float64(K) / T
	for j := 1; j <= K; j++ {
		add(idle(j), active(1), lambda)
		next := "standby"
		if j < K {
			next = idle(j + 1)
		}
		add(idle(j), next, phT)
	}
	n := len(index)
	exit := make([]float64, n)
	for _, e := range entries {
		exit[e.Row] += e.Val
	}
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{Row: i, Col: i, Val: -exit[i]})
	}
	return NewCSR(n, n, entries)
}

// unevenRing is an n-state unidirectional ring whose rates cycle 1, 2, 3,
// so its stationary vector is not uniform and the power loop has work to do.
func unevenRing(n int) *CSR {
	entries := make([]Coord, 0, 2*n)
	for i := 0; i < n; i++ {
		rate := 1 + float64(i%3)
		entries = append(entries, Coord{Row: i, Col: (i + 1) % n, Val: rate}, Coord{Row: i, Col: i, Val: -rate})
	}
	return NewCSR(n, n, entries)
}

func assertBitIdentical(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len(pi) = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pi[%d] = %v (%#x), reference %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestStationaryMatchesReferenceLoop pins every bit of the in-place power
// iteration against the allocating reference: on the X-1 Erlang chains at
// K = 32 and 64 for each of the CLI's power-up delays (the path behind the
// committed artifact digests), on chains that meet Tol before the cap, so
// the early exit is compared too, and on rings.
func TestStationaryMatchesReferenceLoop(t *testing.T) {
	ctx := context.Background()
	type chain struct {
		name  string
		q     *CSR
		opt   PowerOptions
		early bool // meets Tol before the 20,000-iteration cap
	}
	var chains []chain
	for _, k := range []int{32, 64} {
		for _, pud := range []float64{0.001, 0.3, 10} {
			chains = append(chains, chain{
				name:  fmt.Sprintf("erlang/K=%d/PUD=%g", k, pud),
				q:     erlangGenerator(1, 10, 0.5, pud, k),
				early: pud == 0.3,
			})
		}
	}
	chains = append(chains,
		chain{name: "two-state", q: twoStateGenerator(2, 3), early: true},
		chain{name: "ring", q: ringGenerator(50), early: true},
		chain{name: "uneven-ring", q: unevenRing(2001), early: true},
		chain{name: "uneven-ring/loose-tol", q: unevenRing(30), opt: PowerOptions{Tol: 1e-6}, early: true},
	)
	for _, c := range chains {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, err := StationaryCTMCContext(ctx, c.q, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, iters := referenceStationary(c.q, c.opt)
			t.Logf("%d states, %d iterations", c.q.RowsN, iters)
			if early := iters < 20000; early != c.early {
				t.Errorf("reference ran %d iterations; early exit = %v, want %v", iters, early, c.early)
			}
			assertBitIdentical(t, got, want)
		})
	}
}

// TestVecMulToMatchesReference pins the in-place kernel bit for bit against
// the allocating one, including a dirty destination it must zero.
func TestVecMulToMatchesReference(t *testing.T) {
	q := erlangGenerator(1, 10, 0.5, 0.3, 8)
	x := make([]float64, q.RowsN)
	for i := range x {
		x[i] = float64(i%7) / 3 // includes zeros, which the kernel skips
	}
	dst := make([]float64, q.ColsN)
	for i := range dst {
		dst[i] = math.NaN()
	}
	q.VecMulTo(dst, x)
	assertBitIdentical(t, dst, referenceVecMul(q, x))
	assertBitIdentical(t, q.VecMul(x), referenceVecMul(q, x))
}

func TestVecMulToRejectsShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short destination accepted")
		}
	}()
	q := ringGenerator(4)
	q.VecMulTo(make([]float64, 3), make([]float64, 4))
}

// TestStationaryAllocsIndependentOfIterations pins that the power loop
// allocates up front only: 10 and 1000 iterations cost the same number of
// allocations.
func TestStationaryAllocsIndependentOfIterations(t *testing.T) {
	ctx := context.Background()
	q := unevenRing(200)
	if _, iters := referenceStationary(q, PowerOptions{MaxIter: 1000}); iters != 1000 {
		t.Fatalf("chain met Tol after %d iterations; the test needs one that runs 1000", iters)
	}
	allocs := func(maxIter int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := StationaryCTMCContext(ctx, q, PowerOptions{MaxIter: maxIter}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a1000 := allocs(10), allocs(1000); a10 != a1000 {
		t.Fatalf("allocations grow with iterations: %v at MaxIter 10, %v at MaxIter 1000", a10, a1000)
	}
}

// TestFactorizeLeavesArgumentUnmodified pins that the exported
// factorizations copy their argument; only the unexported in-place helper
// behind the direct stationary solve overwrites its matrix.
func TestFactorizeLeavesArgumentUnmodified(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}})
	want := append([]float64(nil), a.Data...)
	for name, factorize := range map[string]func(*Dense) (*LU, error){
		"Factorize":        Factorize,
		"FactorizeContext": func(a *Dense) (*LU, error) { return FactorizeContext(context.Background(), a) },
	} {
		if _, err := factorize(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range want {
			if math.Float64bits(a.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s modified its argument: Data[%d] = %v, want %v", name, i, a.Data[i], v)
			}
		}
	}
}
