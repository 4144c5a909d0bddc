// Package repro reproduces Shareef & Zhu, "Energy Modeling of Processors in
// Wireless Sensor Networks based on Petri Nets" (2008), and grows it into a
// batch-oriented evaluation system for CPU energy models.
//
// The public surface is the Runner API: a Runner owns a base configuration,
// a set of estimators resolved from a registry, and a worker pool; RunBatch
// fans scenarios (sweep points) out concurrently with context cancellation
// and deterministic per-scenario seeding:
//
//	r, err := repro.New(
//		repro.WithConfig(cfg),
//		repro.WithSeed(42),
//		repro.WithParallelism(8),
//		repro.WithMethods("sim", "markov", "petrinet"),
//	)
//	results, err := r.RunAll(ctx, scenarios) // or RunBatch for a stream
//
// Estimators are pluggable: Register adds a named factory, Methods returns
// the paper's three methods, and MethodNames lists everything registered
// (including the ErlangMarkov phase-type extension, spec "erlangK").
//
// The full machinery lives in the internal packages:
//
//   - internal/petri    — the stochastic Petri-net engine (EDSPN),
//   - internal/markov   — CTMCs and the supplementary-variable closed form,
//   - internal/cpu      — the event-driven CPU simulator,
//   - internal/dist     — service and firing-delay distributions,
//   - internal/energy   — power tables and energy accounting,
//   - internal/experiments — regeneration of every paper table and figure.
//
// See examples/ for runnable programs (examples/quickstart and
// examples/batchsweep show the Runner) and cmd/wsnenergy for the experiment
// harness.
package repro

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/petri"
)

// Config parameterizes the CPU energy model shared by all estimators.
type Config = core.Config

// Estimate is the common result of every modeling method.
type Estimate = core.Estimate

// NodeMetrics is the whole-sensor-node slice of an Estimate (power by
// subsystem, radio throughput, battery lifetime); zero for CPU-only
// methods.
type NodeMetrics = core.NodeMetrics

// Estimator is a CPU energy modeling method. EstimateContext is the primary
// entry point — estimators observe the context and abort long simulations
// mid-replication on cancellation; Estimate is the context-free convenience
// form.
type Estimator = core.Estimator

// LegacyEstimator is the pre-context estimator contract (Name plus
// Estimate); upgrade one with AdaptEstimator.
type LegacyEstimator = core.LegacyEstimator

// Factory builds an Estimator from an optional method-specific argument;
// see Register.
type Factory = core.Factory

// The paper's three methods plus the phase-type extension.
type (
	// Simulation is the event-driven software simulator (ground truth).
	Simulation = core.Simulation
	// Markov is the closed-form supplementary-variable model.
	Markov = core.Markov
	// PetriNet is the Figure-3 EDSPN executed by the Petri-net engine.
	PetriNet = core.PetriNet
	// ErlangMarkov is the Erlang phase-type CTMC extension.
	ErlangMarkov = core.ErlangMarkov
)

// PowerModel is a per-state power table in milliwatts.
type PowerModel = energy.PowerModel

// Fractions is the per-state share of time.
type Fractions = energy.Fractions

// PXA271 is the paper's Table-3 power table.
var PXA271 = energy.PXA271

// PaperConfig returns the paper's evaluation configuration (Tables 2-3).
func PaperConfig() Config { return core.PaperConfig() }

// Register adds an estimator factory to the registry under a canonical name
// and optional aliases. Names are case-insensitive; registering a taken
// name is an error. The paper's methods self-register as "simulation"
// ("sim"), "markov", "petrinet" ("petri", "pn") and "erlang"
// ("erlangmarkov").
func Register(name string, factory Factory, aliases ...string) error {
	return core.Register(name, factory, aliases...)
}

// Methods returns the paper's three estimators in presentation order
// (simulation first, as the benchmark), resolved through the registry.
func Methods() []Estimator { return core.Methods() }

// MethodNames returns the canonical names of every registered estimator.
func MethodNames() []string { return core.MethodNames() }

// NewEstimator resolves a method spec such as "markov", "sim" or "erlang16"
// through the registry.
func NewEstimator(spec string) (Estimator, error) { return core.NewEstimator(spec) }

// NewEstimators resolves a list of method specs in order.
func NewEstimators(specs ...string) ([]Estimator, error) { return core.NewEstimators(specs...) }

// AdaptEstimator upgrades a pre-context estimator (Name plus Estimate) to
// the full Estimator interface. The shim's EstimateContext checks the
// context once before delegating; implement EstimateContext natively for
// mid-run cancellation.
func AdaptEstimator(e LegacyEstimator) Estimator { return core.AdaptEstimator(e) }

// BuildCPUNet constructs the paper's Figure-3 Petri net for direct use with
// the internal/petri engine.
func BuildCPUNet(cfg Config) *petri.Net { return core.BuildCPUNet(cfg) }
