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
// before the gather kernel: a fresh zero vector, rows scattered in order,
// columns in CSR order.
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

// hubChain is an n-state chain whose every state also jumps to states 0
// and n/2, so those two columns hold about n entries each and most of them
// sit in the gather kernel's overflow range; the other columns hold a
// diagonal and one ring in-edge.
func hubChain(n int) *CSR {
	entries := make([]Coord, 0, 4*n)
	for i := 0; i < n; i++ {
		ring, hub := 1+float64(i%3), 0.1+float64(i%7)/10
		entries = append(entries,
			Coord{Row: i, Col: (i + 1) % n, Val: ring},
			Coord{Row: i, Col: 0, Val: hub},
			Coord{Row: i, Col: n / 2, Val: hub / 2},
			Coord{Row: i, Col: i, Val: -ring - 1.5*hub})
	}
	return NewCSR(n, n, entries)
}

// duplicateRing is unevenRing built from split rates: every transition and
// diagonal arrives as two Coords that NewCSR sums, and each column ends up
// with two entries, fewer than a gather slot holds.
func duplicateRing(n int) *CSR {
	entries := make([]Coord, 0, 4*n)
	for i := 0; i < n; i++ {
		rate := 1 + float64(i%3)
		entries = append(entries,
			Coord{Row: i, Col: (i + 1) % n, Val: rate / 3}, Coord{Row: i, Col: i, Val: -rate / 3},
			Coord{Row: i, Col: (i + 1) % n, Val: rate * 2 / 3}, Coord{Row: i, Col: i, Val: -rate * 2 / 3})
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
// the early exit is compared too, on rings, on a hub column long enough to
// run the gather's overflow range, and on a chain built from duplicate
// Coords whose columns are shorter than a gather slot.
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
		chain{name: "hub", q: hubChain(60), early: true},
		chain{name: "duplicate-coords", q: duplicateRing(40), early: true},
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

// TestVecMulToMatchesReference pins the gather kernel bit for bit against
// the allocating scatter: as a plain product (VecMul), as one uniformized
// step into a dirty destination it must overwrite, and with the
// destination aliasing the base.
func TestVecMulToMatchesReference(t *testing.T) {
	q := erlangGenerator(1, 10, 0.5, 0.3, 8)
	x := make([]float64, q.RowsN)
	for i := range x {
		x[i] = float64(i%7) / 3 // includes zeros, which the scatter skips
	}
	ref := referenceVecMul(q, x)
	assertBitIdentical(t, q.VecMul(x), ref)

	const div = 1.7
	want := make([]float64, q.ColsN)
	wantSum := 0.0
	for j := range want {
		want[j] = x[j] + ref[j]/div
		wantSum += want[j]
	}
	cols := q.Columns()
	dst := make([]float64, q.ColsN)
	for i := range dst {
		dst[i] = math.NaN()
	}
	if sum := cols.MulAddTo(dst, x, x, div); math.Float64bits(sum) != math.Float64bits(wantSum) {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	assertBitIdentical(t, dst, want)

	base := append([]float64(nil), x...)
	cols.MulAddTo(base, base, x, div)
	assertBitIdentical(t, base, want)
}

func TestVecMulToRejectsShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short destination accepted")
		}
	}()
	q := ringGenerator(4)
	x := make([]float64, 4)
	q.Columns().MulAddTo(make([]float64, 3), x, x, 1)
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

// FuzzColumnKernel pins the gather kernel to the scatter it replaced on
// arbitrary small matrices. The input bytes pick the shape, a CSR built
// directly from (row, col, value) triples — so a row may repeat a column
// and list columns in any order — x, the base vector and the divisor.
// Values are small multiples of 1/7 and 1/3, so negative diagonals, exact
// zeros in x and sums that round differently under another order all
// occur. Both VecMul and MulAddTo must match referenceVecMul bit for bit.
func FuzzColumnKernel(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 250, 0, 1, 6, 1, 0, 3, 1, 1, 253, 0, 7, 3})
	f.Add([]byte{0, 0, 0, 0, 0})
	// Hubs: every row of an 8x8 matrix feeds columns 0 and 5, past a
	// slot's width.
	f.Add([]byte{7, 7, 0, 0, 9, 1, 0, 5, 2, 0, 11, 3, 0, 2, 4, 0, 200, 5, 0, 7, 6, 0, 13, 7, 0, 1, 3, 3, 230, 3, 3, 10,
		0, 5, 4, 1, 5, 17, 2, 5, 244, 3, 5, 8, 4, 5, 1, 5, 5, 100, 6, 5, 3, 7, 5, 9, 1, 2, 0, 5, 9, 0, 4, 2})
	// Duplicate (row, col) pairs and columns in descending order.
	f.Add([]byte{3, 3, 1, 2, 5, 1, 2, 250, 1, 0, 7, 1, 2, 9, 0, 0, 255, 0, 0, 1, 2, 1, 3, 0, 0, 6, 3, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0]%12), 1+int(data[1]%12)
		data = data[2:]
		ntrip := len(data) / 3
		if ntrip > 64 {
			ntrip = 64
		}
		trips := data[:3*ntrip]
		rest := data[3*ntrip:]
		// tail returns byte i of the input past the triples, and a fixed
		// filler once the input runs out.
		tail := func(i int) byte {
			if i < len(rest) {
				return rest[i]
			}
			return byte(i * 37)
		}
		m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
		for r := 0; r < rows; r++ {
			for k := 0; k < ntrip; k++ {
				if int(trips[3*k])%rows == r {
					m.ColIdx = append(m.ColIdx, int(trips[3*k+1])%cols)
					m.Val = append(m.Val, float64(int8(trips[3*k+2]))/7)
				}
			}
			m.RowPtr[r+1] = len(m.Val)
		}
		x := make([]float64, rows)
		for i := range x {
			if b := tail(i); b%4 != 0 { // a quarter of x is exactly zero
				x[i] = float64(int8(b)) / 3
			}
		}
		base := make([]float64, cols)
		for j := range base {
			base[j] = float64(int8(tail(rows+j))) / 5
		}
		div := 1 + float64(tail(rows+cols))/9

		ref := referenceVecMul(m, x)
		assertBitIdentical(t, m.VecMul(x), ref)
		want := make([]float64, cols)
		wantSum := 0.0
		for j := range want {
			want[j] = base[j] + ref[j]/div
			wantSum += want[j]
		}
		dst := make([]float64, cols)
		for j := range dst {
			dst[j] = math.NaN()
		}
		if sum := m.Columns().MulAddTo(dst, base, x, div); math.Float64bits(sum) != math.Float64bits(wantSum) {
			t.Fatalf("sum = %v, want %v", sum, wantSum)
		}
		assertBitIdentical(t, dst, want)
	})
}
