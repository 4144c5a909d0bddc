package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Fatal("dense get/set/add broken")
	}
}

func TestNewDenseFromRows(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("from-rows layout wrong")
	}
}

func TestNewDenseFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	NewDenseFromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatal("transpose wrong")
	}
}

func TestMulVec(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v, want [3 7]", y)
	}
}

func TestVecMul(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	y := m.VecMul([]float64{1, 1})
	if y[0] != 4 || y[1] != 6 {
		t.Fatalf("VecMul = %v, want [4 6]", y)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved without error")
	}
}

func TestSolveNonSquare(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := Factorize(a); err == nil {
		t.Fatal("non-square factorized without error")
	}
}

func TestLUDet(t *testing.T) {
	a := NewDenseFromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-6)) > 1e-10 {
		t.Fatalf("det = %v, want -6", f.Det())
	}
}

// Property: for random well-conditioned systems, Solve(A, A*x) == x.
func TestSolveRoundTripProperty(t *testing.T) {
	r := xrand.New(42)
	f := func(seed uint16) bool {
		n := 1 + int(seed%8)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Add(i, i, float64(n)+2) // diagonally dominant -> well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if Norm1([]float64{-1, 2}) != 3 {
		t.Fatal("Norm1 wrong")
	}
	if NormInf([]float64{-5, 2}) != 5 {
		t.Fatal("NormInf wrong")
	}
	v := Normalize1([]float64{1, 3})
	if v[0] != 0.25 || v[1] != 0.75 {
		t.Fatal("Normalize1 wrong")
	}
}

func TestNormalizeZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normalize1 of zero vector did not panic")
		}
	}()
	Normalize1([]float64{0, 0})
}

func TestCSRBasics(t *testing.T) {
	m := NewCSR(3, 3, []Coord{
		{0, 1, 2}, {1, 0, 3}, {2, 2, 4}, {0, 1, 1}, // duplicate merges to 3
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 1) != 3 || d.At(1, 0) != 3 || d.At(2, 2) != 4 {
		t.Fatal("CSR entries wrong after duplicate merge")
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(10)
		var entries []Coord
		for k := 0; k < n*2; k++ {
			entries = append(entries, Coord{r.Intn(n), r.Intn(n), r.NormFloat64()})
		}
		m := NewCSR(n, n, entries)
		d := m.ToDense()
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y1, y2 := m.MulVec(x), d.MulVec(x)
		y3, y4 := m.VecMul(x), d.VecMul(x)
		for i := 0; i < n; i++ {
			if math.Abs(y1[i]-y2[i]) > 1e-12 || math.Abs(y3[i]-y4[i]) > 1e-12 {
				t.Fatal("CSR and dense products disagree")
			}
		}
	}
}

func TestCSRRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range entry accepted")
		}
	}()
	NewCSR(2, 2, []Coord{{2, 0, 1}})
}

// twoStateGenerator returns the generator of a two-state CTMC with rates
// a (0->1) and b (1->0); its stationary distribution is (b, a)/(a+b).
func twoStateGenerator(a, b float64) *CSR {
	return NewCSR(2, 2, []Coord{
		{0, 0, -a}, {0, 1, a},
		{1, 0, b}, {1, 1, -b},
	})
}

func TestStationaryTwoState(t *testing.T) {
	q := twoStateGenerator(2, 3)
	for name, solve := range map[string]func(*CSR) ([]float64, error){
		"power":  func(q *CSR) ([]float64, error) { return StationaryCTMC(q, PowerOptions{}) },
		"direct": StationaryCTMCDirect,
	} {
		pi, err := solve(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(pi[0]-0.6) > 1e-8 || math.Abs(pi[1]-0.4) > 1e-8 {
			t.Fatalf("%s: pi = %v, want [0.6 0.4]", name, pi)
		}
	}
}

// TestStationaryMM1K checks both solvers against the closed-form M/M/1/K
// queue distribution pi_n ∝ rho^n.
func TestStationaryMM1K(t *testing.T) {
	const (
		lambda = 2.0
		mu     = 3.0
		K      = 10
	)
	var entries []Coord
	for n := 0; n <= K; n++ {
		if n < K {
			entries = append(entries, Coord{n, n + 1, lambda}, Coord{n, n, -lambda})
		}
		if n > 0 {
			entries = append(entries, Coord{n, n - 1, mu}, Coord{n, n, -mu})
		}
	}
	q := NewCSR(K+1, K+1, entries)
	rho := lambda / mu
	norm := 0.0
	for n := 0; n <= K; n++ {
		norm += math.Pow(rho, float64(n))
	}
	piDirect, err := StationaryCTMCDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	piPower, err := StationaryCTMC(q, PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= K; n++ {
		want := math.Pow(rho, float64(n)) / norm
		if math.Abs(piDirect[n]-want) > 1e-9 {
			t.Fatalf("direct pi[%d] = %v, want %v", n, piDirect[n], want)
		}
		if math.Abs(piPower[n]-want) > 1e-7 {
			t.Fatalf("power pi[%d] = %v, want %v", n, piPower[n], want)
		}
	}
}

func TestStationaryBalance(t *testing.T) {
	// For any solution, pi*Q should be ~0.
	q := twoStateGenerator(0.7, 1.9)
	pi, err := StationaryCTMCDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	res := q.VecMul(pi)
	if NormInf(res) > 1e-10 {
		t.Fatalf("balance residual = %v", res)
	}
}

func BenchmarkLUSolve50(b *testing.B) {
	r := xrand.New(1)
	n := 50
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		a.Add(i, i, 100)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	r := xrand.New(2)
	n := 1000
	var entries []Coord
	for i := 0; i < n; i++ {
		for k := 0; k < 5; k++ {
			entries = append(entries, Coord{i, r.Intn(n), r.NormFloat64()})
		}
	}
	m := NewCSR(n, n, entries)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.MulVec(x)
	}
}
