package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
)

// ExampleRunner_Run runs the paper's three methods on one configuration,
// with the configuration's own seed used verbatim.
func ExampleRunner_Run() {
	cfg := core.PaperConfig()
	cfg.PDT = 0.5
	cfg.PUD = 0.001
	cfg.SimTime = 2000
	cfg.Replications = 5

	r, err := core.NewRunner(core.WithConfig(cfg), core.WithEstimators(core.Methods()...), core.WithSeedDerivation(false))
	if err != nil {
		panic(err)
	}
	res, err := r.Run(context.Background(), core.Scenario{})
	if err != nil {
		panic(err)
	}
	for _, e := range res.Estimates {
		fmt.Printf("%-10s active %.2f\n", e.Method, e.Fractions[energy.Active])
	}
	// Output:
	// Simulation active 0.10
	// Markov     active 0.10
	// PetriNet   active 0.10
}

// ExampleMarkov evaluates the closed form alone — microseconds instead of
// a simulation run.
func ExampleMarkov() {
	cfg := core.PaperConfig()
	est, err := core.Markov{}.Estimate(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean latency %.4f s\n", est.MeanLatency)
	// Output: mean latency 0.1112 s
}
