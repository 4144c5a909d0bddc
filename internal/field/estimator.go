package field

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/energy"
)

// Estimator runs a field simulation as a registered core.Estimator, so
// whole sensor fields sweep through the Runner/RunBatch machinery — result
// cache, shards, cost-weighted planning — exactly like the single-CPU
// methods.
// The scenario Config supplies the per-node CPU model, the sample rate
// (Lambda), the horizon (SimTime/Warmup) and the seed; the topology and
// radio/battery tables are fixed in the estimator and encoded in its Name,
// which keeps cache keys faithful.
type Estimator struct {
	// Topology selects the constructor: "line", "star" or "tree".
	Topology string
	// N is the node count, Fanout the tree arity (tree topology only).
	N, Fanout int
	// Spacing is the inter-node distance in meters (the star radius).
	Spacing float64
	// Radio and Battery parameterize the non-CPU energy accounting.
	Radio   energy.Radio
	Battery energy.Battery
}

// DefaultEstimator returns a field estimator over an n-node 4-ary tree at
// 10 m spacing with the canonical radio on AA batteries.
func DefaultEstimator(n int) Estimator {
	return Estimator{
		Topology: "tree",
		N:        n,
		Fanout:   4,
		Spacing:  10,
		Radio:    energy.FirstOrderRadio(),
		Battery:  energy.AA2850,
	}
}

// Name identifies the estimator including every non-scenario parameter, so
// two differently parameterized field estimators never share a cache entry.
func (e Estimator) Name() string {
	r := e.Radio
	return fmt.Sprintf("Field(%s,n=%d,fanout=%d,spacing=%gm,radio=%g/%g/%g/%g@%gb+%gmW,batt=%gmAh@%gV)",
		e.Topology, e.N, e.Fanout, e.Spacing,
		r.ElecJPerBit, r.AmpJPerBitM2, r.AggJPerBit, r.SenseJPerBit, r.PacketBits, r.ListenMW,
		e.Battery.CapacitymAh, e.Battery.Volts)
}

// Nodes constructs the estimator's topology at the given sample rate.
func (e Estimator) Nodes(rate float64) ([]Node, error) {
	switch e.Topology {
	case "line":
		return LineTopology(e.N, rate, e.Spacing), nil
	case "star":
		return StarTopology(e.N, rate, e.Spacing), nil
	case "tree":
		return TreeTopology(e.N, e.Fanout, rate, e.Spacing), nil
	default:
		return nil, fmt.Errorf("field: unknown topology %q (want line, star or tree)", e.Topology)
	}
}

// Estimate runs the field to completion.
func (e Estimator) Estimate(cfg core.Config) (*core.Estimate, error) {
	return e.EstimateContext(context.Background(), cfg)
}

// EstimateContext simulates the field for the scenario and reports the
// bottleneck node's state shares and power draw, the field-wide energy,
// the sink's delivered throughput and the network lifetime — measured at
// the first battery-zero crossing when a node actually died within the
// horizon, extrapolated from steady-state draw otherwise (the bottleneck
// is then the first node to die rather than the highest extrapolated
// drain).
func (e Estimator) EstimateContext(ctx context.Context, cfg core.Config) (*core.Estimate, error) {
	nodes, err := e.Nodes(cfg.Lambda)
	if err != nil {
		return nil, err
	}
	res, err := SimulateContext(ctx, Config{
		Nodes:   nodes,
		CPU:     cfg,
		Radio:   e.Radio,
		Battery: e.Battery,
		Horizon: cfg.SimTime,
		Warmup:  cfg.Warmup,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	var bn *NodeResult
	for i := range res.Nodes {
		if res.Nodes[i].ID == res.Bottleneck {
			bn = &res.Nodes[i]
			break
		}
	}
	if bn == nil {
		return nil, fmt.Errorf("field: bottleneck node %d missing from results", res.Bottleneck)
	}
	cpuMW := bn.CPUEnergyJ / res.Time * 1000
	return &core.Estimate{
		Method:    e.Name(),
		Fractions: bn.CPUFractions,
		EnergyJ:   res.TotalEnergyJ,
		Node: core.NodeMetrics{
			CPUAvgMW:         cpuMW,
			RadioAvgMW:       bn.AvgPowerMW - cpuMW,
			TotalAvgMW:       bn.AvgPowerMW,
			PacketsPerSecond: float64(res.Delivered) / res.Time,
			LifetimeSeconds:  res.LifetimeSeconds,
		},
	}, nil
}

func init() {
	// "field" resolves the default tree estimator; a numeric suffix sets
	// the node count ("field100" → 100 nodes). Line and star variants get
	// their own names with the same suffix convention.
	factory := func(topology string, def int) core.Factory {
		return func(arg string) (core.Estimator, error) {
			n := def
			if arg != "" {
				v, err := strconv.Atoi(arg)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("field: bad node count %q", arg)
				}
				n = v
			}
			e := DefaultEstimator(n)
			e.Topology = topology
			return e, nil
		}
	}
	core.MustRegister("field", factory("tree", 25), "wsnfield")
	core.MustRegister("fieldline", factory("line", 25))
	core.MustRegister("fieldstar", factory("star", 25))
}
