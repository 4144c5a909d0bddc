package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 <= p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it,
// so p = 0 is the minimum. It never interpolates: every reported value is
// one that was measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// spread is (max - min) / median: the run-to-run width the bounds in
// BENCHMARK.json are set from.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// zeroNaN maps the NaN percentile of an empty sample to 0.
func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
