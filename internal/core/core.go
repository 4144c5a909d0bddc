// Package core is the paper's primary contribution as a library: energy
// modeling of a power-managed wireless-sensor-node processor by three
// interchangeable methods —
//
//   - Simulation: the event-driven software simulator (internal/cpu), the
//     paper's ground truth;
//   - Markov: the closed-form supplementary-variable model
//     (internal/markov), equations 11–24;
//   - PetriNet: the Figure-3 EDSPN executed by the stochastic Petri-net
//     engine (internal/petri), with energy from equation 25.
//
// All three consume the same Config and produce the same Estimate, which is
// what makes the paper's Figures 4–5 and Tables 4–5 one-line comparisons
// (see internal/experiments).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/energy"
)

// Config is the shared parameterization of the CPU energy model.
type Config struct {
	// Lambda is the Poisson arrival rate in jobs/s (Table 2: 1/s).
	Lambda float64
	// Mu is the exponential service rate in jobs/s. The paper's Table 2
	// lists "Service Rate .1 per sec", which must be read as a mean
	// service time of 0.1 s (mu = 10/s) for the queue to be stable; see
	// DESIGN.md §2.
	Mu float64
	// PDT is the Power Down Threshold in seconds.
	PDT float64
	// PUD is the Power Up Delay in seconds.
	PUD float64
	// Power is the per-state power table (Table 3: PXA271).
	Power energy.PowerModel
	// SimTime is the measured horizon in seconds (Table 2: 1000 s).
	SimTime float64
	// Warmup is the simulated-but-unmeasured prefix for the stochastic
	// estimators.
	Warmup float64
	// Replications is the number of independent runs for the stochastic
	// estimators (default 10).
	Replications int
	// Seed drives all randomness.
	Seed uint64
}

// PaperConfig returns the configuration of the paper's evaluation:
// Table 2 arrival/service rates and horizon, Table 3 PXA271 powers, and the
// Figure 4/5 baseline delays (PDT swept in experiments, PUD = 0.001 s).
func PaperConfig() Config {
	return Config{
		Lambda:       1,
		Mu:           10,
		PDT:          0.5,
		PUD:          0.001,
		Power:        energy.PXA271,
		SimTime:      1000,
		Warmup:       100,
		Replications: 10,
		Seed:         20080901, // the paper's publication month
	}
}

// Validate checks parameter ranges and queue stability.
func (c Config) Validate() error {
	if c.Lambda <= 0 || math.IsNaN(c.Lambda) {
		return fmt.Errorf("core: Lambda must be positive, got %v", c.Lambda)
	}
	if c.Mu <= 0 || math.IsNaN(c.Mu) {
		return fmt.Errorf("core: Mu must be positive, got %v", c.Mu)
	}
	if c.Lambda >= c.Mu {
		return fmt.Errorf("core: unstable queue: rho = %v >= 1", c.Lambda/c.Mu)
	}
	// The `!(x >= 0)` / `!(x > 0)` forms also catch NaN. An infinite delay
	// or horizon is no model either: never sleeping is
	// cpu.PolicyNeverSleep, not PDT = +Inf.
	if !(c.PDT >= 0) || math.IsInf(c.PDT, 0) || !(c.PUD >= 0) || math.IsInf(c.PUD, 0) {
		return fmt.Errorf("core: PDT and PUD must be non-negative and finite, got %v and %v", c.PDT, c.PUD)
	}
	if !(c.SimTime > 0) || math.IsInf(c.SimTime, 0) {
		return fmt.Errorf("core: SimTime must be positive and finite, got %v", c.SimTime)
	}
	if !(c.Warmup >= 0) || math.IsInf(c.Warmup, 0) {
		return fmt.Errorf("core: Warmup must be non-negative and finite, got %v", c.Warmup)
	}
	if c.Replications < 0 {
		return fmt.Errorf("core: Replications must be non-negative, got %d", c.Replications)
	}
	return nil
}

// withDefaults fills unset optional fields.
func (c Config) withDefaults() Config {
	if c.Replications == 0 {
		c.Replications = 10
	}
	if c.Power.Name == "" {
		c.Power = energy.PXA271
	}
	return c
}

// Rho returns the offered load.
func (c Config) Rho() float64 { return c.Lambda / c.Mu }

// Estimate is the common result shape of every estimator.
type Estimate struct {
	// Method names the estimator that produced the result.
	Method string
	// Fractions is the steady-state share of time per power state
	// (Figure 4's y axis).
	Fractions energy.Fractions
	// FractionsCI holds 95% half-widths per state; zero for analytic
	// methods.
	FractionsCI energy.Fractions
	// EnergyJ is the total energy over the configured horizon in Joules
	// (Figure 5's y axis).
	EnergyJ float64
	// EnergyCIJ is the 95% half-width of EnergyJ; zero for analytic
	// methods.
	EnergyCIJ float64
	// MeanJobs is the mean number of jobs in the system.
	MeanJobs float64
	// MeanLatency is the mean per-job sojourn time in seconds.
	MeanLatency float64
	// Node carries whole-sensor-node outputs for estimators that model
	// more than the CPU (the sensornode lifetime estimator); zero for the
	// paper's CPU-only methods. A flat value struct keeps Estimate free of
	// reference types, which the result cache's copy-on-read safety relies
	// on.
	Node NodeMetrics
}

// NodeMetrics is the node-level slice of an Estimate: average power by
// subsystem, radio throughput, and battery lifetime.
type NodeMetrics struct {
	// CPUAvgMW, RadioAvgMW and TotalAvgMW are average power draws in
	// milliwatts.
	CPUAvgMW, RadioAvgMW, TotalAvgMW float64
	// PacketsPerSecond is the radio transmit throughput.
	PacketsPerSecond float64
	// LifetimeSeconds is the battery lifetime at TotalAvgMW.
	LifetimeSeconds float64
}

// Estimator computes an Estimate for a Config. Implementations: Simulation,
// Markov, PetriNet, ErlangMarkov.
//
// EstimateContext is the primary entry point: estimators observe the
// context and abort long simulations mid-replication when it is cancelled.
// Estimate is the context-free convenience form (equivalent to
// EstimateContext with context.Background()). Pre-context implementations
// that only have the old Estimate signature are upgraded with
// AdaptEstimator.
type Estimator interface {
	// Name identifies the method in tables and figures.
	Name() string
	// Estimate runs the method to completion.
	Estimate(cfg Config) (*Estimate, error)
	// EstimateContext runs the method under a context; a cancelled context
	// aborts the run and returns an error wrapping ctx.Err().
	EstimateContext(ctx context.Context, cfg Config) (*Estimate, error)
}

// LegacyEstimator is the pre-context estimator contract: Name plus the old
// Estimate(cfg) signature. AdaptEstimator upgrades one to the full
// Estimator interface.
type LegacyEstimator interface {
	Name() string
	Estimate(cfg Config) (*Estimate, error)
}

// adaptedEstimator is the compatibility shim behind AdaptEstimator.
type adaptedEstimator struct {
	inner LegacyEstimator
}

func (a adaptedEstimator) Name() string { return a.inner.Name() }

func (a adaptedEstimator) Estimate(cfg Config) (*Estimate, error) { return a.inner.Estimate(cfg) }

// EstimateContext checks the context once up front and then runs the
// wrapped estimator to completion: a legacy estimator cannot be interrupted
// mid-run, but a cancelled batch still skips it before it starts.
func (a adaptedEstimator) EstimateContext(ctx context.Context, cfg Config) (*Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.inner.Estimate(cfg)
}

// Unwrap exposes the wrapped estimator, so the result cache can key on the
// concrete implementation type rather than on the shim.
func (a adaptedEstimator) Unwrap() LegacyEstimator { return a.inner }

// AdaptEstimator upgrades a pre-context estimator to the Estimator
// interface. If e already implements Estimator it is returned unchanged;
// otherwise the returned shim forwards Estimate, and EstimateContext checks
// the context once before delegating (no mid-run cancellation — implement
// EstimateContext natively for that).
func AdaptEstimator(e LegacyEstimator) Estimator {
	if full, ok := e.(Estimator); ok {
		return full
	}
	return adaptedEstimator{inner: e}
}

// MethodSpecs returns the registry specs of the paper's three methods in
// presentation order (simulation first, as the benchmark) — the single
// source of that list, shared by Methods and by coordinators that must
// record the estimator set for other processes (shard manifests).
func MethodSpecs() []string { return []string{"simulation", "markov", "petrinet"} }

// Methods returns the paper's three estimators in presentation order,
// resolved through the registry.
func Methods() []Estimator {
	ests, err := NewEstimators(MethodSpecs()...)
	if err != nil {
		// The three paper methods register in this package's init; a
		// lookup failure is a programming error, not a runtime condition.
		panic(err)
	}
	return ests
}
