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
//     configured parent when no ancestor up to the sink survived.
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
	})
}
