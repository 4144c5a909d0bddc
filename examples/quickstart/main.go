// Quickstart: estimate the energy of a power-managed WSN processor with
// the paper's three methods and print a side-by-side comparison, using the
// public Runner API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/energy"
	"repro/internal/report"
)

func main() {
	// The paper's operating point: Poisson arrivals at 1 job/s, mean
	// service 0.1 s, PXA271 power table, 1000 s horizon.
	cfg := repro.PaperConfig()
	cfg.PDT = 0.5   // power down after half a second of idleness
	cfg.PUD = 0.001 // 1 ms wake-up

	fmt.Printf("CPU model: lambda=%g/s, mu=%g/s (rho=%.0f%%), PDT=%gs, PUD=%gs\n\n",
		cfg.Lambda, cfg.Mu, cfg.Rho()*100, cfg.PDT, cfg.PUD)

	// A Runner owns the configuration and the estimator set; methods are
	// resolved by name through the registry.
	runner, err := repro.New(
		repro.WithConfig(cfg),
		repro.WithMethods("sim", "markov", "petrinet"),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(context.Background(), repro.Scenario{Name: "paper operating point"})
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("Steady-state comparison over 1000 s",
		"Method", "Standby %", "PowerUp %", "Idle %", "Active %", "Energy (J)", "Mean jobs")
	for _, e := range res.Estimates {
		t.AddRow(e.Method,
			report.F(e.Fractions[energy.Standby]*100, 2),
			report.F(e.Fractions[energy.PowerUp]*100, 2),
			report.F(e.Fractions[energy.Idle]*100, 2),
			report.F(e.Fractions[energy.Active]*100, 2),
			report.F(e.EnergyJ, 2),
			report.F(e.MeanJobs, 4))
	}
	fmt.Print(t.ASCII())

	fmt.Println("\nThe Petri net behind the PetriNet method (Graphviz DOT):")
	fmt.Println("run `go run ./cmd/wsnenergy petri -paper -dot` to render Figure 3.")
}
