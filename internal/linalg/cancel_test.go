package linalg

// Cancellation tests for the context-aware solver entry points: a cancelled
// context must abort the iteration mid-solve with ctx.Err(), and the
// background-context wrappers must keep solving as before.

import (
	"context"
	"errors"
	"testing"
)

// ringGenerator builds the CSR generator of an n-state unidirectional ring
// CTMC — irreducible, so both stationary solvers accept it.
func ringGenerator(n int) *CSR {
	entries := make([]Coord, 0, 2*n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		entries = append(entries,
			Coord{Row: i, Col: next, Val: 1},
			Coord{Row: i, Col: i, Val: -1},
		)
	}
	return NewCSR(n, n, entries)
}

func TestStationaryCTMCContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StationaryCTMCContext(ctx, ringGenerator(50), PowerOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled power iteration returned %v, want context.Canceled", err)
	}
}

func TestStationaryCTMCDirectContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StationaryCTMCDirectContext(ctx, ringGenerator(50)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled direct solve returned %v, want context.Canceled", err)
	}
}

func TestFactorizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewDense(8, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i, 2)
	}
	if _, err := FactorizeContext(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled factorization returned %v, want context.Canceled", err)
	}
}

// TestContextWrappersStillSolve pins that the background-context wrappers
// return the same solutions as before the context plumbing.
func TestContextWrappersStillSolve(t *testing.T) {
	q := ringGenerator(10)
	direct, err := StationaryCTMCDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	power, err := StationaryCTMC(q, PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if d := direct[i] - 0.1; d > 1e-9 || d < -1e-9 {
			t.Fatalf("direct pi[%d] = %v, want uniform 0.1", i, direct[i])
		}
		if d := power[i] - 0.1; d > 1e-6 || d < -1e-6 {
			t.Fatalf("power pi[%d] = %v, want uniform 0.1", i, power[i])
		}
	}
}

// TestStationaryDispatch pins the size rule: chains up to directMaxStates
// states get the dense LU solution bit for bit, larger ones the power
// iteration's.
func TestStationaryDispatch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n     int
		solve func(*CSR) ([]float64, error)
	}{
		{10, func(q *CSR) ([]float64, error) { return StationaryCTMCDirectContext(ctx, q) }},
		{directMaxStates + 1, func(q *CSR) ([]float64, error) { return StationaryCTMCContext(ctx, q, PowerOptions{}) }},
	} {
		q := unevenRing(tc.n) // uneven rates, so the two solvers round differently
		want, err := tc.solve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Stationary(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d states: pi[%d] = %v, want %v", tc.n, i, got[i], want[i])
			}
		}
	}
}
