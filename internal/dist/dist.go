// Package dist provides the service-time and firing-delay distributions
// shared by the event-driven CPU simulator (internal/cpu) and the stochastic
// Petri-net engine (internal/petri).
//
// Every distribution is an immutable value type implementing Distribution.
// Sampling draws from an explicitly passed *xrand.Rand so that simulations
// stay reproducible: the same seed yields the same trajectory regardless of
// which distributions are mixed in a model.
package dist

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Distribution is a non-negative continuous probability distribution used
// for service times, think times and transition firing delays.
type Distribution interface {
	// Sample draws one value using the given generator. Samples must be
	// finite and non-negative: the CPU simulator fails the run with an
	// error otherwise, and the Petri-net engine panics.
	Sample(r *xrand.Rand) float64
	// Mean returns the expected value.
	Mean() float64
	// Var returns the variance.
	Var() float64
	String() string
}

// ---------------------------------------------------------------------------

// Exponential is the exponential distribution with the given rate
// (mean 1/Rate). It is the only distribution eligible for exact CTMC
// analysis of a Petri net (memorylessness).
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(rate float64) Exponential {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("dist: exponential rate must be positive and finite, got %v", rate))
	}
	return Exponential{Rate: rate}
}

// ExpMean returns an exponential distribution with the given mean.
func ExpMean(mean float64) Exponential { return NewExponential(1 / mean) }

func (e Exponential) Sample(r *xrand.Rand) float64 { return r.ExpFloat64() / e.Rate }
func (e Exponential) Mean() float64                { return 1 / e.Rate }
func (e Exponential) Var() float64                 { return 1 / (e.Rate * e.Rate) }
func (e Exponential) String() string               { return fmt.Sprintf("Exp(rate=%g)", e.Rate) }

// ---------------------------------------------------------------------------

// Deterministic is the degenerate distribution concentrated at Value. The
// paper's Power Down Threshold and Power Up Delay transitions are
// deterministic, which is exactly what breaks the plain Markov model.
type Deterministic struct {
	Value float64
}

// NewDeterministic returns the constant distribution at the given value.
func NewDeterministic(value float64) Deterministic {
	if value < 0 || math.IsNaN(value) {
		panic(fmt.Sprintf("dist: deterministic value must be non-negative, got %v", value))
	}
	return Deterministic{Value: value}
}

func (d Deterministic) Sample(*xrand.Rand) float64 { return d.Value }
func (d Deterministic) Mean() float64              { return d.Value }
func (d Deterministic) Var() float64               { return 0 }
func (d Deterministic) String() string             { return fmt.Sprintf("Det(%g)", d.Value) }

// ---------------------------------------------------------------------------

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct {
	Low, High float64
}

// NewUniform returns a uniform distribution on [low, high).
func NewUniform(low, high float64) Uniform {
	if math.IsNaN(low) || math.IsNaN(high) || low < 0 || high <= low {
		panic(fmt.Sprintf("dist: uniform needs 0 <= low < high, got [%v, %v)", low, high))
	}
	return Uniform{Low: low, High: high}
}

func (u Uniform) Sample(r *xrand.Rand) float64 { return u.Low + (u.High-u.Low)*r.Float64() }
func (u Uniform) Mean() float64                { return (u.Low + u.High) / 2 }
func (u Uniform) Var() float64 {
	w := u.High - u.Low
	return w * w / 12
}
func (u Uniform) String() string { return fmt.Sprintf("Uni[%g,%g)", u.Low, u.High) }

// ---------------------------------------------------------------------------

// Erlang is the Erlang-K distribution: the sum of K independent exponential
// phases of the given per-phase Rate (mean K/Rate). It is the phase-type
// approximation of a deterministic delay used by the ErlangMarkov estimator.
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang returns an Erlang distribution with k phases of the given rate.
func NewErlang(k int, rate float64) Erlang {
	if k < 1 {
		panic(fmt.Sprintf("dist: Erlang needs k >= 1, got %d", k))
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("dist: Erlang rate must be positive and finite, got %v", rate))
	}
	return Erlang{K: k, Rate: rate}
}

// ErlangMean returns an Erlang distribution with k phases and the given
// overall mean (per-phase rate k/mean).
func ErlangMean(k int, mean float64) Erlang { return NewErlang(k, float64(k)/mean) }

func (e Erlang) Sample(r *xrand.Rand) float64 {
	if e.K == 1 {
		// A single phase is exactly exponential; the ziggurat draw is ~3x
		// cheaper than a uniform plus a log.
		return r.ExpFloat64() / e.Rate
	}
	// For K >= 2 the product of K open-interval uniforms through one log
	// beats K separate ExpFloat64 calls and is identical in law.
	prod := 1.0
	for i := 0; i < e.K; i++ {
		prod *= r.Float64Open()
	}
	return -math.Log(prod) / e.Rate
}
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }
func (e Erlang) Var() float64  { return float64(e.K) / (e.Rate * e.Rate) }
func (e Erlang) String() string {
	return fmt.Sprintf("Erlang(k=%d, rate=%g)", e.K, e.Rate)
}

// ---------------------------------------------------------------------------

// Weibull is the Weibull distribution with shape Shape and scale Scale.
// Shape < 1 gives the heavy-tailed service times observed in real sensor
// workloads; Shape = 1 reduces to Exponential(1/Scale).
type Weibull struct {
	Shape, Scale float64
}

// NewWeibull returns a Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) Weibull {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		panic(fmt.Sprintf("dist: Weibull needs positive shape and scale, got %v and %v", shape, scale))
	}
	return Weibull{Shape: shape, Scale: scale}
}

func (w Weibull) Sample(r *xrand.Rand) float64 {
	// X = scale * E^(1/shape) with E ~ Exp(1): the inverse-CDF transform
	// with the -log(U) draw replaced by the (same-law, cheaper) ziggurat.
	return w.Scale * math.Pow(r.ExpFloat64(), 1/w.Shape)
}
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }
func (w Weibull) Var() float64 {
	m := math.Gamma(1 + 1/w.Shape)
	return w.Scale * w.Scale * (math.Gamma(1+2/w.Shape) - m*m)
}
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(k=%g, scale=%g)", w.Shape, w.Scale)
}

// ---------------------------------------------------------------------------

// HyperExponential is a probabilistic mixture of exponentials: with
// probability Probs[i] a sample is drawn from Exponential(Rates[i]). Its
// coefficient of variation exceeds 1, covering the bursty side of M/G/1.
type HyperExponential struct {
	Probs []float64
	Rates []float64
}

// NewHyperExponential returns a mixture of exponentials. The probabilities
// must sum to 1 (within 1e-9) and pair one-to-one with positive rates.
func NewHyperExponential(probs, rates []float64) HyperExponential {
	if len(probs) == 0 || len(probs) != len(rates) {
		panic(fmt.Sprintf("dist: hyperexponential needs matching probs and rates, got %d and %d", len(probs), len(rates)))
	}
	sum := 0.0
	for i, p := range probs {
		if p < 0 || math.IsNaN(p) {
			panic(fmt.Sprintf("dist: hyperexponential prob %d is %v", i, p))
		}
		if rates[i] <= 0 || math.IsNaN(rates[i]) {
			panic(fmt.Sprintf("dist: hyperexponential rate %d is %v", i, rates[i]))
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		panic(fmt.Sprintf("dist: hyperexponential probs sum to %v, want 1", sum))
	}
	return HyperExponential{
		Probs: append([]float64(nil), probs...),
		Rates: append([]float64(nil), rates...),
	}
}

func (h HyperExponential) Sample(r *xrand.Rand) float64 {
	u := r.Float64()
	acc := 0.0
	for i, p := range h.Probs {
		acc += p
		if u < acc {
			return r.ExpFloat64() / h.Rates[i]
		}
	}
	return r.ExpFloat64() / h.Rates[len(h.Rates)-1]
}

func (h HyperExponential) Mean() float64 {
	m := 0.0
	for i, p := range h.Probs {
		m += p / h.Rates[i]
	}
	return m
}

// Var returns the variance via the second moment E[X^2] = sum p_i * 2/rate_i^2.
func (h HyperExponential) Var() float64 {
	m, m2 := 0.0, 0.0
	for i, p := range h.Probs {
		m += p / h.Rates[i]
		m2 += 2 * p / (h.Rates[i] * h.Rates[i])
	}
	return m2 - m*m
}

func (h HyperExponential) String() string {
	return fmt.Sprintf("HyperExp(%d phases)", len(h.Probs))
}
