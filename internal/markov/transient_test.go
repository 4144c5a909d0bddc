package markov

// Bit-exactness and allocation tests for TransientContext's uniformization
// loop, which reuses one product buffer: it must return, bit for bit, what
// the loop that allocated a fresh product per step returned, and its
// allocations must not grow with t.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
)

// referenceTransient is the uniformization loop TransientContext ran before
// it reused its product buffer: one freshly allocated x^T * Q per step.
func referenceTransient(c *CTMC, pi0 []float64, t, eps float64) []float64 {
	q := c.Generator()
	lam := 0.0
	for i := 0; i < q.RowsN; i++ {
		for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
			if q.ColIdx[k] == i {
				if r := -q.Val[k]; r > lam {
					lam = r
				}
			}
		}
	}
	lam *= 1.02
	v := append([]float64(nil), pi0...)
	out := make([]float64, len(pi0))
	lt := lam * t
	logw := -lt
	cum := 0.0
	for k := 0; ; k++ {
		w := math.Exp(logw)
		for i := range out {
			out[i] += w * v[i]
		}
		cum += w
		if 1-cum < eps && float64(k) > lt {
			break
		}
		qv := make([]float64, len(v))
		for i, vi := range v {
			if vi == 0 {
				continue
			}
			for k := q.RowPtr[i]; k < q.RowPtr[i+1]; k++ {
				qv[q.ColIdx[k]] += vi * q.Val[k]
			}
		}
		for i := range v {
			v[i] += qv[i] / lam
		}
		logw += math.Log(lt) - math.Log(float64(k+1))
	}
	return linalg.Normalize1(out)
}

// transientChains are an M/M/1/40 queue and a 4-phase Erlang CPU-like
// cycle, each started from a point mass in its first state.
func transientChains() map[string]*CTMC {
	mm1 := NewCTMC()
	for n := 0; n < 40; n++ {
		mm1.AddRate(fmt.Sprint(n), fmt.Sprint(n+1), 2)
		mm1.AddRate(fmt.Sprint(n+1), fmt.Sprint(n), 3)
	}
	cycle := NewCTMC()
	cycle.AddRate("standby", "up/1", 1)
	for j := 1; j < 4; j++ {
		cycle.AddRate(fmt.Sprintf("up/%d", j), fmt.Sprintf("up/%d", j+1), 40)
	}
	cycle.AddRate("up/4", "active", 40)
	cycle.AddRate("active", "idle", 10)
	cycle.AddRate("idle", "active", 1)
	cycle.AddRate("idle", "standby", 2)
	return map[string]*CTMC{"mm1k": mm1, "cycle": cycle}
}

func pointMass(n int) []float64 {
	pi0 := make([]float64, n)
	pi0[0] = 1
	return pi0
}

func TestTransientMatchesReferenceLoop(t *testing.T) {
	for name, c := range transientChains() {
		for _, at := range []float64{0.01, 0.5, 10} {
			pi0 := pointMass(c.Len())
			got, err := c.TransientContext(context.Background(), pi0, at, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceTransient(c, pi0, at, 1e-12)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s at t=%g: pi[%d] = %v, reference %v", name, at, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTransientAllocsIndependentOfTime pins that the uniformization loop
// allocates up front only: t = 0.5 and t = 100 (about a hundred times as
// many products) cost the same number of allocations.
func TestTransientAllocsIndependentOfTime(t *testing.T) {
	c := transientChains()["mm1k"]
	pi0 := pointMass(c.Len())
	allocs := func(at float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := c.TransientContext(context.Background(), pi0, at, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(0.5), allocs(100); short != long {
		t.Fatalf("allocations grow with t: %v at t=0.5, %v at t=100", short, long)
	}
}
