package field

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// formatPrePRResult renders every result field that existed before live
// battery depletion landed, with full float precision. The golden file it
// is compared against was generated by the pre-depletion simulator, so a
// byte-identical match proves the no-death path still produces exactly the
// trajectories and accounting it did when lifetime was extrapolated.
func formatPrePRResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Time=%v Delivered=%d TotalEnergyJ=%v LifetimeSeconds=%v Bottleneck=%d\n",
		res.Time, res.Delivered, res.TotalEnergyJ, res.LifetimeSeconds, res.Bottleneck)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %d parent=%d dist=%v rate=%v samples=%d processed=%d tx=%d rx=%d\n",
			n.ID, n.Parent, n.Distance, n.SampleRate, n.Samples, n.Processed, n.TxPackets, n.RxPackets)
		fmt.Fprintf(&b, "  fractions=%v\n", n.CPUFractions)
		fmt.Fprintf(&b, "  cpuJ=%v txJ=%v rxJ=%v aggJ=%v senseJ=%v listenJ=%v radioJ=%v totalJ=%v\n",
			n.CPUEnergyJ, n.TxEnergyJ, n.RxEnergyJ, n.AggEnergyJ, n.SenseEnergyJ, n.ListenEnergyJ,
			n.RadioEnergyJ, n.EnergyJ)
		fmt.Fprintf(&b, "  avgMW=%v lifetimeS=%v\n", n.AvgPowerMW, n.LifetimeSeconds)
	}
	return b.String()
}

// TestFieldNoDeathGolden pins the no-death path bit for bit: with the stock
// AA battery no node comes close to dying, and every pre-existing result
// field — trajectories, counters, energies, the extrapolated lifetimes —
// must match the committed golden byte for byte.
func TestFieldNoDeathGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"tree13", func() Config {
			cfg := Config{
				Nodes:   TreeTopology(13, 3, 0.8, 12),
				CPU:     testCPU(),
				Radio:   energy.FirstOrderRadio(),
				Battery: energy.AA2850,
				Horizon: 400,
				Warmup:  40,
				Seed:    7,
			}
			cfg.Radio.ListenMW = 0.05
			return cfg
		}()},
		{"line5", func() Config {
			return Config{
				Nodes:   LineTopology(5, 0.5, 15),
				CPU:     testCPU(),
				Radio:   energy.FirstOrderRadio(),
				Battery: energy.AA2850,
				Horizon: 300,
				Warmup:  30,
				Seed:    20080901,
			}
		}()},
	}
	var b strings.Builder
	for _, tc := range cases {
		res, err := Simulate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", tc.name, formatPrePRResult(res))
	}
	got := b.String()

	path := filepath.Join("testdata", "nodeath_trajectory.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("no-death field trajectories diverged from the pre-depletion golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// hopTree lays out an n-node fanout-ary tree rooted at the sink (node 0):
// node i's parent is (i-1)/fanout and every hop is exactly hop meters long,
// at an angle drawn from seed. Unlike TreeTopology, hop length does not
// grow with the width of a row. Sample rates are left to the caller.
func hopTree(n, fanout int, hop float64, seed uint64) []Node {
	r := xrand.New(seed)
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: i}
		if i == 0 {
			continue
		}
		p := (i - 1) / fanout
		a := 2 * math.Pi * r.Float64()
		nodes[i].Parent = p
		nodes[i].Pos = Position{X: nodes[p].Pos.X + hop*math.Cos(a), Y: nodes[p].Pos.Y + hop*math.Sin(a)}
	}
	return nodes
}

// deathGoldenConfig is a 300-node fanout-4 tree with 10 m hops on starved
// batteries: relays die in chains, orphans reroute past several dead
// ancestors, and the sink itself dies, leaving survivors with no route.
func deathGoldenConfig() Config {
	nodes := hopTree(300, 4, 10, 11)
	// Four interleaved sample rates — four compiled nets whose nodes are
	// scattered through the ID order — and busy leaves that die before
	// their quieter ancestors, so orphans reroute past several dead levels.
	r := xrand.New(12)
	for i := range nodes {
		nodes[i].SampleRate = []float64{0.01, 0.1, 1, 4}[r.Intn(4)]
	}
	cfg := DefaultConfig(nodes)
	cfg.CPU = testCPU()
	cfg.Battery = energy.Battery{CapacitymAh: 0.45, Volts: 3}
	cfg.Warmup, cfg.Horizon = 20, 200
	cfg.Seed = 11
	return cfg
}

// TestFieldDeathGolden pins the depletion path bit for bit: the death
// timeline, every reroute and drop counter and every per-node field of a
// field in which deaths cascade must match the committed golden.
func TestFieldDeathGolden(t *testing.T) {
	cfg := deathGoldenConfig()
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run must exercise what the golden is there to pin. A multi-level
	// reroute: when a node dies, an orphan of it skips at least two dead
	// ancestors to reach the nearest one still alive.
	deathAt := func(id int) float64 { return res.Nodes[id].DeathTime }
	multi := 0
	for _, d := range res.Deaths {
		for _, c := range cfg.Nodes {
			if c.Parent != d.ID || c.ID == d.ID || deathAt(c.ID) <= d.Time {
				continue
			}
			skipped := 0
			p := d.ID
			for p != 0 && deathAt(p) <= d.Time {
				p = cfg.Nodes[p].Parent
				skipped++
			}
			if deathAt(p) > d.Time && skipped >= 2 {
				multi++
			}
		}
	}
	if !res.Nodes[0].Died || res.DroppedInFlight == 0 || res.DroppedNoRoute == 0 || multi == 0 {
		t.Fatalf("golden field lost its coverage: sink dead %v, in-flight drops %d, no-route drops %d, multi-level reroutes %d",
			res.Nodes[0].Died, res.DroppedInFlight, res.DroppedNoRoute, multi)
	}
	var b strings.Builder
	nodes := res.Nodes
	res.Nodes = nil
	fmt.Fprintf(&b, "%+v\n", *res)
	for _, nr := range nodes {
		fmt.Fprintf(&b, "%+v\n", nr)
	}
	got := b.String()

	path := filepath.Join("testdata", "death_trajectory.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("death-path field trajectories diverged from the golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
