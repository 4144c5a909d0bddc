package field

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/xrand"
)

// FuzzFieldSimulate drives the simulator over randomized small topologies —
// random trees, sample rates, radio parameters, placements, battery sizes
// from instantly-fatal to effectively infinite — and asserts the accounting
// invariants that must hold for every field:
//
//   - the simulation completes without error;
//   - no energy component is negative and no lifetime is NaN;
//   - the field total equals the per-node sum and packet flows balance
//     exactly even across mid-run deaths (drops happen in queues, never
//     mid-transmission);
//   - dead nodes accrue nothing after their crossing: their listen energy
//     is exactly the alive-window closed form, their CPU energy is bounded
//     by the alive window at peak draw, and their budget reads empty;
//   - with deaths the network lifetime is the measured first crossing;
//     without, it stays the extrapolated minimum and survivors obey
//     traffic monotonicity (more traffic never lengthens a lifetime);
//   - reroutes land where they must: every surviving node reports as its
//     parent its nearest configured ancestor alive at the horizon, or its
//     configured parent when no ancestor up to the sink survived;
//   - the same field measured from t = 0 conserves energy across the
//     layers (checkConservation).
//
// Trees reach 40 nodes, so deaths chain through several levels.
func FuzzFieldSimulate(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(1000), uint16(300), uint8(10), uint16(65535))
	f.Add(uint64(42), uint8(2), uint16(1), uint16(65535), uint8(0), uint16(40))
	f.Add(uint64(20080901), uint8(6), uint16(30000), uint16(1), uint8(200), uint16(0))
	f.Add(uint64(7), uint8(5), uint16(20000), uint16(500), uint8(120), uint16(5))
	f.Add(uint64(3), uint8(38), uint16(20000), uint16(400), uint8(60), uint16(1500))
	f.Add(uint64(3), uint8(38), uint16(20000), uint16(400), uint8(60), uint16(3000))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, rateRaw, radioRaw uint16, spacingRaw uint8, battRaw uint16) {
		cfg := fuzzConfig(seed, nRaw, rateRaw, radioRaw, spacingRaw, battRaw)
		nodes, n := cfg.Nodes, len(cfg.Nodes)
		hz := cfg.Warmup + cfg.Horizon

		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}

		var total float64
		var txSum, rxSum, samples, droppedAtDeath uint64
		minLife := math.Inf(1)
		firstDeath := math.Inf(1)
		maxMW := cfg.Radio.ListenMW
		for _, mw := range cfg.CPU.Power.MW {
			maxMW += mw
		}
		for _, nr := range res.Nodes {
			for name, v := range map[string]float64{
				"CPU": nr.CPUEnergyJ, "Tx": nr.TxEnergyJ, "Rx": nr.RxEnergyJ,
				"Agg": nr.AggEnergyJ, "Sense": nr.SenseEnergyJ, "Listen": nr.ListenEnergyJ,
				"Radio": nr.RadioEnergyJ, "Total": nr.EnergyJ, "Remaining": nr.RemainingJ,
			} {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("node %d: %s energy %v", nr.ID, name, v)
				}
			}
			if math.IsNaN(nr.LifetimeSeconds) || nr.LifetimeSeconds <= 0 {
				t.Fatalf("node %d: lifetime %v", nr.ID, nr.LifetimeSeconds)
			}
			total += nr.EnergyJ
			txSum += nr.TxPackets
			rxSum += nr.RxPackets
			samples += nr.Samples
			droppedAtDeath += nr.DroppedAtDeath
			if nr.LifetimeSeconds < minLife {
				minLife = nr.LifetimeSeconds
			}

			if nr.Died {
				if !(nr.DeathTime > 0) || nr.DeathTime > hz {
					t.Fatalf("node %d: death time %v outside (0, %v]", nr.ID, nr.DeathTime, hz)
				}
				if nr.DeathTime < firstDeath {
					firstDeath = nr.DeathTime
				}
				if nr.LifetimeSeconds != nr.DeathTime {
					t.Fatalf("node %d: dead lifetime %v != death time %v", nr.ID, nr.LifetimeSeconds, nr.DeathTime)
				}
				if nr.RemainingJ != 0 {
					t.Fatalf("node %d: dead with %v J remaining", nr.ID, nr.RemainingJ)
				}
				if nr.DeliveredBefore > res.Delivered {
					t.Fatalf("node %d: DeliveredBefore %d > Delivered %d", nr.ID, nr.DeliveredBefore, res.Delivered)
				}
				// Nothing accrues after the crossing: listen energy is
				// exactly the alive measured window, and CPU energy cannot
				// exceed that window at peak draw.
				aliveMeasured := 0.0
				if nr.DeathTime > cfg.Warmup {
					aliveMeasured = math.Min(nr.DeathTime, hz) - cfg.Warmup
				}
				if want := cfg.Radio.ListenMW * aliveMeasured / 1000; nr.ListenEnergyJ != want {
					t.Fatalf("node %d: listen %v J, want alive-window %v J", nr.ID, nr.ListenEnergyJ, want)
				}
				if nr.CPUEnergyJ > maxMW*aliveMeasured/1000*(1+1e-12) {
					t.Fatalf("node %d: CPU %v J exceeds alive window %v s at peak draw", nr.ID, nr.CPUEnergyJ, aliveMeasured)
				}
				if sum := nr.CPUFractions.Sum(); sum > 1+1e-9 {
					t.Fatalf("node %d: dead-node fractions sum to %v", nr.ID, sum)
				}
			} else {
				if !math.IsInf(nr.DeathTime, 1) || nr.DroppedAtDeath != 0 {
					t.Fatalf("node %d: survivor with DeathTime=%v DroppedAtDeath=%d", nr.ID, nr.DeathTime, nr.DroppedAtDeath)
				}
				// Monotonicity: adding the energy of one more transmitted
				// packet to the node's budget never lengthens its lifetime.
				extra := (nr.EnergyJ + cfg.Radio.PacketTxJ(nr.Distance) + cfg.Radio.PacketRxJ()) / res.Time * 1000
				if longer := cfg.Battery.LifetimeSeconds(extra); longer > nr.LifetimeSeconds {
					t.Fatalf("node %d: more traffic lengthened lifetime: %v -> %v",
						nr.ID, nr.LifetimeSeconds, longer)
				}
			}
		}
		// Node IDs are their indexes and node 0 is the sink.
		for _, nr := range res.Nodes {
			if nr.Died || nr.Parent == nr.ID {
				continue
			}
			want := nodes[nr.ID].Parent
			for a := want; ; a = nodes[a].Parent {
				if !res.Nodes[a].Died {
					want = a
					break
				}
				if a == 0 {
					want = nodes[nr.ID].Parent
					break
				}
			}
			if nr.Parent != want {
				t.Fatalf("node %d: reports parent %d, want nearest live ancestor %d (deaths %+v)", nr.ID, nr.Parent, want, res.Deaths)
			}
		}
		if res.TotalEnergyJ != total {
			t.Fatalf("TotalEnergyJ %v != sum %v", res.TotalEnergyJ, total)
		}
		// Transmission is atomic: every measured transmitted packet was
		// received, deaths or not — losses happen in queues (counted per
		// dead node) or pre-transmit (no-route drops), never on the air.
		if txSum != rxSum {
			t.Fatalf("field Tx %d != Rx %d", txSum, rxSum)
		}
		if res.DroppedInFlight != droppedAtDeath {
			t.Fatalf("DroppedInFlight %d != per-node sum %d", res.DroppedInFlight, droppedAtDeath)
		}
		// Everything the sink absorbed was sensed by someone. Samples count
		// the measured window only, while a handful of packets sensed during
		// warmup can be delivered just after it — allow that bounded
		// in-flight leakage but nothing more (a delivery double-count would
		// blow far past it).
		if slack := uint64(64 * n); res.Delivered > samples+slack {
			t.Fatalf("Delivered %d > sensed %d + in-flight slack %d", res.Delivered, samples, slack)
		}
		if len(res.Deaths) == 0 {
			if !math.IsInf(res.FirstDeathSeconds, 1) {
				t.Fatalf("no deaths but FirstDeathSeconds=%v", res.FirstDeathSeconds)
			}
			if res.LifetimeSeconds != minLife {
				t.Fatalf("network lifetime %v != min node lifetime %v", res.LifetimeSeconds, minLife)
			}
		} else {
			// Measured beats extrapolated: lifetime is the first crossing
			// (an extrapolated survivor estimate may legitimately undercut
			// it, so the min-over-nodes rule no longer applies).
			if res.FirstDeathSeconds != firstDeath || res.LifetimeSeconds != firstDeath {
				t.Fatalf("first death %v but FirstDeathSeconds=%v LifetimeSeconds=%v",
					firstDeath, res.FirstDeathSeconds, res.LifetimeSeconds)
			}
			if res.Deaths[0].Time != firstDeath || res.Bottleneck != res.Deaths[0].ID {
				t.Fatalf("death timeline %+v inconsistent with first death %v / bottleneck %d",
					res.Deaths, firstDeath, res.Bottleneck)
			}
			for i := 1; i < len(res.Deaths); i++ {
				if res.Deaths[i].Time < res.Deaths[i-1].Time {
					t.Fatalf("death timeline out of order: %+v", res.Deaths)
				}
			}
		}

		// The same field measured from t = 0 must conserve energy.
		cfg.Warmup = 0
		res, err = Simulate(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		checkConservation(t, cfg, res)
	})
}

// checkConservation checks a Warmup-0 run's energy ledger across the
// layers. With no warmup the measured window is each node's whole life, so
// the energy the field reports — CPU energy from the engine's state-place
// averages, radio energy from per-packet accounting — must be exactly what
// its battery lost, which the field drains separately by integrating the
// live marking's draw between events:
//
//   - a survivor's EnergyJ equals its drain, capacity − RemainingJ, to a
//     relative 1e-9;
//   - a dead node's EnergyJ is at least capacity·(1−1e-9): it spent its
//     whole battery;
//   - a dead node's overdraft beyond capacity is at most its Tx+Rx+Agg+Sense
//     energy, since BatteryState lets the node's last transaction complete
//     and the continuous draw stops exactly at the crossing.
//
// It returns how many nodes survived and died.
func checkConservation(t testing.TB, cfg Config, res *Result) (survivors, dead int) {
	t.Helper()
	capJ := cfg.Battery.EnergyJoules()
	for _, nr := range res.Nodes {
		if !nr.Died {
			survivors++
			if drained := capJ - nr.RemainingJ; math.Abs(nr.EnergyJ-drained) > 1e-9*drained {
				t.Fatalf("node %d: reports %v J but its battery lost %v J (rel. error %.3g)",
					nr.ID, nr.EnergyJ, drained, math.Abs(nr.EnergyJ-drained)/drained)
			}
			continue
		}
		dead++
		if nr.EnergyJ < capJ*(1-1e-9) {
			t.Fatalf("node %d: died having spent %v J of its %v J battery", nr.ID, nr.EnergyJ, capJ)
		}
		if over, txn := nr.EnergyJ-capJ, nr.TxEnergyJ+nr.RxEnergyJ+nr.AggEnergyJ+nr.SenseEnergyJ; over > txn*(1+1e-9)+1e-9*capJ {
			t.Fatalf("node %d: overdrew its %v J battery by %v J, more than its %v J of transactions",
				nr.ID, capJ, over, txn)
		}
	}
	return survivors, dead
}

// fuzzConfig builds the field FuzzFieldSimulate runs from its raw inputs: a
// random tree of 2 to 40 nodes with IDs equal to their indexes and node 0
// the sink.
func fuzzConfig(seed uint64, nRaw uint8, rateRaw, radioRaw uint16, spacingRaw uint8, battRaw uint16) Config {
	n := 2 + int(nRaw%39)
	rng := xrand.New(seed)
	nodes := make([]Node, n)
	baseRate := 0.05 + float64(rateRaw)/65535*1.5
	for i := range nodes {
		parent := 0
		if i > 0 {
			parent = rng.Intn(i) // parents precede children: always a tree
		}
		nodes[i] = Node{
			ID:         i,
			Parent:     parent,
			SampleRate: baseRate * (0.5 + rng.Float64()),
			Pos: Position{
				X: float64(spacingRaw) * rng.Float64(),
				Y: float64(spacingRaw) * rng.Float64(),
			},
		}
	}
	scale := 0.1 + float64(radioRaw)/65535*10
	cfg := DefaultConfig(nodes)
	cfg.Radio = energy.Radio{
		ElecJPerBit:  50e-9 * scale,
		AmpJPerBitM2: 100e-12 * scale,
		AggJPerBit:   5e-9 * scale,
		SenseJPerBit: 5e-9 * scale,
		PacketBits:   256 + float64(radioRaw%2048),
		ListenMW:     0.01 * scale,
	}
	cfg.Horizon = 25
	cfg.Warmup = 2.5
	cfg.Seed = seed
	// Battery from ~0.005 J (death within the first event or two,
	// warmup included) up to the stock AA pair (no node ever dies);
	// the draw under PXA271 is ~0.02-0.2 W, so the low half of the
	// range deals mid-run deaths and the top survives the horizon.
	if battRaw == 65535 {
		cfg.Battery = energy.AA2850
	} else {
		cfg.Battery = energy.Battery{CapacitymAh: 0.0005 + float64(battRaw)*0.0001, Volts: 3}
	}
	return cfg
}

// TestFieldEnergyConservation runs checkConservation over 400 fuzzer-shaped
// fields measured from t = 0, with batteries from instantly fatal to the
// stock AA pair, so the ledger is checked on survivors and dead nodes
// alike.
func TestFieldEnergyConservation(t *testing.T) {
	var survivors, dead int
	for seed := uint64(1); seed <= 400; seed++ {
		r := xrand.New(seed)
		battRaw := uint16(r.Intn(4000))
		if seed%4 == 0 {
			battRaw = 65535 // every fourth field survives on AA cells
		}
		cfg := fuzzConfig(seed, uint8(r.Intn(39)), uint16(r.Intn(65536)), uint16(r.Intn(65536)), uint8(r.Intn(256)), battRaw)
		cfg.Warmup = 0
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, d := checkConservation(t, cfg, res)
		survivors += s
		dead += d
	}
	if survivors == 0 || dead == 0 {
		t.Fatalf("the ledger must be checked on both kinds of node: %d survivors, %d dead", survivors, dead)
	}
	t.Logf("%d survivors and %d dead nodes conserve energy", survivors, dead)
}
