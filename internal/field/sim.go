package field

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/petri"
)

// NodeResult is one node's outcome over the measured period.
type NodeResult struct {
	// ID and Parent identify the node and its next hop (Parent == ID for
	// the sink). Distance is the transmit distance to the parent in
	// meters.
	ID, Parent int
	Distance   float64
	// SampleRate echoes the node's own sensing rate.
	SampleRate float64
	// Samples counts the node's own sensed samples (AR firings),
	// Processed the CPU jobs it completed (SR firings, own + relayed).
	Samples, Processed uint64
	// TxPackets and RxPackets count radio packets sent to the parent and
	// received from children.
	TxPackets, RxPackets uint64
	// CPUFractions are the processor state shares (Figure-3 places).
	CPUFractions energy.Fractions
	// Energy breakdown in joules over the measured period.
	CPUEnergyJ, TxEnergyJ, RxEnergyJ, AggEnergyJ, SenseEnergyJ, ListenEnergyJ float64
	// RadioEnergyJ is the radio subtotal, EnergyJ the node total.
	RadioEnergyJ, EnergyJ float64
	// AvgPowerMW is the node's average draw while alive in the measured
	// window. LifetimeSeconds is the node's battery lifetime: for a node
	// that died mid-run it is the measured DeathTime; for a survivor it is
	// extrapolated from the average draw (first-order, same definition as
	// the analytic network.Analyze, so the two are directly comparable).
	AvgPowerMW      float64
	LifetimeSeconds float64
	// Died reports that the node's battery hit zero mid-run; DeathTime is
	// the exact crossing time in absolute simulation seconds (warmup
	// included), +Inf for survivors. For a dead node the energy fields
	// above cover the measured window up to DeathTime only, and
	// CPUFractions are the state shares of its alive measured time (all
	// zero when it died during warmup).
	Died      bool
	DeathTime float64
	// DeliveredBefore counts the packets the sink had absorbed when this
	// node died — the traffic impact marker of each death. Survivors
	// report the run's full Delivered count.
	DeliveredBefore uint64
	// DroppedAtDeath counts the packets that died with the node: queued
	// and in-service jobs (own samples and relayed traffic alike) plus
	// finished packets still waiting in its outbox.
	DroppedAtDeath uint64
	// RemainingJ is the battery budget left at the end of the run, zero
	// for dead nodes. Unlike the measured energy fields it accounts the
	// whole run including warmup — batteries drain physically from t=0.
	RemainingJ float64
}

// LifetimeDays converts the node lifetime to days.
func (r *NodeResult) LifetimeDays() float64 { return r.LifetimeSeconds / 86400 }

// DeathEvent is one entry of a field's death timeline.
type DeathEvent struct {
	// ID names the node that died; Time is the exact battery-zero
	// crossing in absolute simulation seconds — the scheduler kills the
	// node at the predicted crossing of its piecewise-constant draw, not
	// at the next quantized event.
	ID   int
	Time float64
	// Dropped counts the packets lost with the node (see
	// NodeResult.DroppedAtDeath).
	Dropped uint64
}

// Result is the outcome of a field simulation.
type Result struct {
	// Time is the measured duration in seconds.
	Time float64
	// Nodes holds per-node results in ascending ID order.
	Nodes []NodeResult
	// Delivered counts packets absorbed at the sink during measurement.
	Delivered uint64
	// TotalEnergyJ is the field-wide energy spent over the measured
	// period; it equals the sum of the per-node EnergyJ values.
	TotalEnergyJ float64
	// LifetimeSeconds is the network lifetime under the first-node-death
	// definition. When a node actually depleted its battery within the
	// horizon it is the measured FirstDeathSeconds; otherwise it is the
	// minimum extrapolated node lifetime, as before depletion existed.
	// Bottleneck is the ID of the first node to die (lowest ID on ties of
	// the extrapolated path).
	LifetimeSeconds float64
	Bottleneck      int
	// FirstDeathSeconds is the measured network lifetime: the exact
	// battery crossing time of the first death, +Inf when every node
	// survives the horizon (lifetime then remains an extrapolation).
	FirstDeathSeconds float64
	// Deaths is the chronological death timeline.
	Deaths []DeathEvent
	// DroppedInFlight counts packets lost inside dying nodes (queued,
	// in service, or in the outbox at the crossing time); DroppedNoRoute
	// counts packets dropped at live senders whose whole ancestor chain —
	// sink included — was dead, leaving no live route.
	DroppedInFlight uint64
	DroppedNoRoute  uint64
}

// LifetimeDays converts the network lifetime to days.
func (r *Result) LifetimeDays() float64 { return r.LifetimeSeconds / 86400 }

// nodeIDs caches the place and transition IDs a field node's net resolves
// to. BuildNodeNet is deterministic, so the IDs are identical across all
// per-rate compilations; they are still resolved per compiled net.
type nodeIDs struct {
	p6, buffer, outbox             petri.PlaceID
	standby, powerup, idle, active petri.PlaceID
	ar, sr                         petri.TransitionID
	// states indexes the four processor-state places by energy.State, the
	// order the live power-draw scan walks them in.
	states [energy.NumStates]petri.PlaceID
}

// Sentinel parent indexes of a nodeState. A live interior node points at
// its current routing parent's index; reroutes keep the invariant that the
// pointed-at node is alive.
const (
	parentSink = -1 // the node is the sink: it absorbs its own packets
	parentNone = -2 // every ancestor up to and including the sink is dead
)

// nodeState is one node's live simulation state.
type nodeState struct {
	node   Node
	parent int // index into the state slice, or a sentinel above
	dist   float64
	sess   *petri.Session
	ids    *nodeIDs // shared by every node of the same compiled net

	txPackets, rxPackets uint64
	txJ, rxJ, aggJ       float64

	// Live battery accounting. The node's marking — and therefore its
	// continuous draw — is piecewise constant between the scheduler's
	// touches of the node (the global heap guarantees no internal event
	// fires between them), so drain integrates exactly: touch() accrues
	// drawW over [lastT, t] and refresh() re-derives drawW and the
	// predicted battery-zero crossing deathAt from the current marking.
	batt     energy.BatteryState
	alive    bool
	measured bool // the session crossed the warmup boundary (firing counters were re-based)
	lastT    float64
	drawW    float64 // continuous draw in watts: state power + listen
	deathAt  float64 // predicted crossing time, +Inf when none
	stateTok [energy.NumStates]int
	// resInt integrates measured-window state residency in the field
	// layer, so a node that dies early still reports exact fractions and
	// CPU energy without finishing its session at the horizon.
	resInt     [energy.NumStates]float64
	senseFired uint64 // AR firings already charged as sensing energy

	deathTime        float64
	deliveredBefore  uint64
	samplesAtDeath   uint64
	processedAtDeath uint64
	droppedAtDeath   uint64
}

// Simulate runs the field to its horizon and returns per-node and
// network-level energy, traffic and lifetime results.
func Simulate(cfg Config) (*Result, error) {
	return SimulateContext(context.Background(), cfg)
}

// SimulateContext is Simulate with cooperative cancellation: the per-node
// engines poll the context during event processing, so cancellation lands
// mid-run even in large fields.
func SimulateContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := f.run(ctx); err != nil {
		return nil, err
	}
	return f.finish()
}

type fieldSim struct {
	cfg      Config
	nodes    []nodeState
	heap     eventHeap
	warmup   float64
	hz       float64
	sensePkJ float64 // sensing energy of one sample, charged per AR firing

	// kidHead[i] is the first node routing through node i and kidNext[c]
	// the next sibling of node c, -1 ending a list: an intrusive child list
	// over node indexes, so a death visits only its own children. A live
	// node with a live parent is on that parent's list; a dead node stays
	// on its parent's list until the parent's own death walks and drops it.
	kidHead, kidNext []int32

	delivered       uint64
	deaths          []DeathEvent
	droppedInFlight uint64
	droppedNoRoute  uint64
}

// open compiles the distinct per-rate nets, opens one engine session per
// node (seeded from NodeSeed) and schedules the initial events.
func open(ctx context.Context, cfg Config) (*fieldSim, error) {
	f := &fieldSim{
		cfg:    cfg,
		warmup: cfg.Warmup,
		hz:     cfg.Warmup + cfg.Horizon,
	}
	// Ascending-ID node order makes every downstream iteration (and the
	// reported result order) independent of the caller's slice order, and
	// lets a parent's index be found by binary search.
	nodes := append([]Node(nil), cfg.Nodes...)
	slices.SortFunc(nodes, func(a, b Node) int { return cmp.Compare(a.ID, b.ID) })
	indexOf := func(id int) int {
		k, _ := slices.BinarySearchFunc(nodes, id, func(n Node, id int) int { return cmp.Compare(n.ID, id) })
		return k
	}

	// Nodes sharing a sample rate share one compiled net; rates are kept in
	// order of first appearance with their first node and node count.
	type rateGroup struct{ first, count int }
	groupOf := map[float64]int{}
	var groups []rateGroup
	f.nodes = make([]nodeState, len(nodes))
	f.kidHead = make([]int32, len(nodes))
	f.kidNext = make([]int32, len(nodes))
	for i := range f.kidHead {
		f.kidHead[i] = -1
	}
	for i, n := range nodes {
		g, ok := groupOf[n.SampleRate]
		if !ok {
			g = len(groups)
			groupOf[n.SampleRate] = g
			groups = append(groups, rateGroup{first: i})
		}
		groups[g].count++
		parent := parentSink
		var dist float64
		f.kidNext[i] = -1
		if n.Parent != n.ID {
			parent = indexOf(n.Parent)
			dist = Distance(n.Pos, nodes[parent].Pos)
			f.kidNext[i] = f.kidHead[parent]
			f.kidHead[parent] = int32(i)
		}
		f.nodes[i] = nodeState{node: n, parent: parent, dist: dist}
	}

	// One compiled net and one batch of sessions per distinct sample rate.
	// The rate's k-th session belongs to its k-th node in ID order.
	for _, g := range groups {
		rate := nodes[g.first].SampleRate
		net := BuildNodeNet(cfg.CPU, rate)
		comp, err := petri.Compile(net)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("field: node %d: %w", nodes[g.first].ID, err)
		}
		ids := resolveIDs(net)
		// nextNode walks the rate's nodes in ID order; it is run once to
		// seed the sessions and once more to hand them out.
		at := g.first
		nextNode := func() int {
			for nodes[at].SampleRate != rate {
				at++
			}
			at++
			return at - 1
		}
		sess, err := comp.OpenSessions(ctx, g.count, func(int) petri.SimOptions {
			return petri.SimOptions{
				Seed:     NodeSeed(cfg.Seed, nodes[nextNode()].ID),
				Warmup:   cfg.Warmup,
				Duration: cfg.Horizon,
			}
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("field: node %d: %w", nodes[at-1].ID, err)
		}
		at = g.first
		for k := range sess {
			n := &f.nodes[nextNode()]
			n.sess, n.ids = &sess[k], ids
		}
	}
	f.sensePkJ = cfg.Radio.SenseJ(cfg.Radio.PacketBits)
	f.heap.init(len(f.nodes))
	for i := range f.nodes {
		n := &f.nodes[i]
		n.alive = true
		n.batt = energy.NewBatteryState(cfg.Battery)
		n.measured = cfg.Warmup == 0
		f.refresh(i) // derives the initial draw, death prediction and heap key
	}
	return f, nil
}

func resolveIDs(n *petri.Net) *nodeIDs {
	place := func(name string) petri.PlaceID {
		id, ok := n.PlaceByName(name)
		if !ok {
			panic(fmt.Sprintf("field: node net lost place %q", name))
		}
		return id
	}
	trans := func(name string) petri.TransitionID {
		id, ok := n.TransitionByName(name)
		if !ok {
			panic(fmt.Sprintf("field: node net lost transition %q", name))
		}
		return id
	}
	ids := &nodeIDs{
		p6:      place(core.PlaceP6),
		buffer:  place(core.PlaceCPUBuffer),
		outbox:  place(PlaceOutbox),
		standby: place(core.PlaceStandBy),
		powerup: place(core.PlacePowerUp),
		idle:    place(core.PlaceIdle),
		active:  place(core.PlaceActive),
		ar:      trans(core.TransAR),
		sr:      trans(core.TransSR),
	}
	ids.states[energy.Standby] = ids.standby
	ids.states[energy.PowerUp] = ids.powerup
	ids.states[energy.Idle] = ids.idle
	ids.states[energy.Active] = ids.active
	return ids
}

// close abandons every still-open session (error paths; finish closes
// sessions by finishing them).
func (f *fieldSim) close() {
	for i := range f.nodes {
		if s := f.nodes[i].sess; s != nil {
			s.Close()
		}
	}
}

// run is the global event loop: repeatedly advance the globally earliest
// node to its next event time — its next internal Petri-net event or its
// predicted battery-zero crossing, whichever comes first — and forward
// whatever packets that event (and any cascade it triggers upstream)
// produced. A popped crossing kills the node at the exact crossing time:
// the internal event that would have fired at or after it never does.
func (f *fieldSim) run(ctx context.Context) error {
	poll := 0
	for {
		i, te := f.heap.min()
		if i < 0 || te > f.hz {
			return nil
		}
		if poll++; poll&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n := &f.nodes[i]
		if n.deathAt <= te {
			f.kill(i)
			continue
		}
		if err := n.sess.StepTo(te); err != nil {
			return err
		}
		f.touch(i, te)
		if err := f.deliver(i, te); err != nil {
			return err
		}
	}
}

// touch accrues node i's continuous battery drain — CPU state power plus
// listen draw, constant since its last touch — up to time t, and folds the
// measured-window slice of the interval into the residency integrals.
func (f *fieldSim) touch(i int, t float64) {
	n := &f.nodes[i]
	dt := t - n.lastT
	if dt <= 0 {
		return
	}
	n.batt.DrainContinuous(n.drawW, dt)
	m0, m1 := n.lastT, t
	if m0 < f.warmup {
		m0 = f.warmup
	}
	if m1 > f.hz {
		m1 = f.hz
	}
	if m1 > m0 {
		for s, tok := range n.stateTok {
			if tok != 0 {
				n.resInt[s] += float64(tok) * (m1 - m0)
			}
		}
	}
	n.lastT = t
}

// refresh re-derives node i's live quantities after its marking or battery
// changed at n.lastT: charges sensing energy for new samples, recomputes
// the continuous draw from the current state marking, predicts the
// battery-zero crossing, and re-keys the node in the event heap with
// min(next internal event, predicted crossing).
func (f *fieldSim) refresh(i int) {
	n := &f.nodes[i]
	if !n.measured && n.lastT >= f.warmup {
		// The engine re-based its firing counters to zero at the warmup
		// boundary; re-base the sensing-charge baseline with it.
		n.measured = true
		n.senseFired = 0
	}
	if ar := n.sess.Firings(n.ids.ar); ar > n.senseFired {
		n.batt.DrainJ(float64(ar-n.senseFired) * f.sensePkJ)
		n.senseFired = ar
	}
	mw := f.cfg.Radio.ListenMW
	for s, p := range n.ids.states {
		tok := n.sess.Tokens(p)
		n.stateTok[s] = tok
		mw += float64(tok) * f.cfg.CPU.Power.MW[s]
	}
	n.drawW = mw / 1000
	n.deathAt = n.lastT + n.batt.TimeToEmpty(n.drawW)
	next := n.sess.NextEventTime()
	if n.deathAt < next {
		next = n.deathAt
	}
	f.heap.update(i, next)
}

// kill processes node i's death at its predicted crossing time: accrue its
// last alive interval, freeze its measured counters, count the packets
// that die with it, close its session, remove it from the scheduler, and
// reroute its orphaned children to the nearest live ancestor — its own
// current parent, live by induction (every earlier death rerouted this
// node's subtree the same way). Children of a dead sink are left with no
// route; their future packets are dropped at the sender.
//
// The reroute costs O(children): kill walks only i's child list, dropping
// children that died before it and splicing each live one onto its new
// parent's list. It replaced a scan of every node per death, which was
// about half of a 10,000-node run with ~1,800 deaths; with the batched
// session open, the wsnbench field-10k-death run fell from 35.0 to
// 13.5 ms (fastest op, median of 10 alternating pairs, 2-core host).
func (f *fieldSim) kill(i int) {
	n := &f.nodes[i]
	td := n.deathAt
	f.touch(i, td)
	n.alive = false
	n.deathTime = td
	n.deliveredBefore = f.delivered
	if n.measured {
		n.samplesAtDeath = n.sess.Firings(n.ids.ar)
		n.processedAtDeath = n.sess.Firings(n.ids.sr)
	}
	dropped := n.sess.Tokens(n.ids.outbox) + n.sess.Tokens(n.ids.buffer) + n.sess.Tokens(n.ids.active)
	n.droppedAtDeath = uint64(dropped)
	f.droppedInFlight += uint64(dropped)
	n.sess.Close()
	n.sess = nil
	f.heap.remove(i)

	newParent := n.parent
	if newParent == parentSink {
		newParent = parentNone
	}
	for c := f.kidHead[i]; c >= 0; {
		next := f.kidNext[c]
		if k := &f.nodes[c]; k.alive {
			k.parent = newParent
			k.dist = 0
			if newParent >= 0 {
				k.dist = Distance(k.node.Pos, f.nodes[newParent].node.Pos)
				f.kidNext[c] = f.kidHead[newParent]
				f.kidHead[newParent] = c
			}
		}
		c = next
	}
	f.kidHead[i] = -1
	f.deaths = append(f.deaths, DeathEvent{ID: n.node.ID, Time: td, Dropped: uint64(dropped)})
}

// deliver drains node i's outbox and pushes the packets up the routing
// chain: each hop charges transmit energy at the sender (distance-
// dependent), receive and aggregation energy at the receiver, and injects
// the packets as workload into the receiver's CPU net. The receiver is
// first stepped to the current time, so a relayed packet can trigger
// further completions that continue the cascade toward the sink within the
// same instant. Radio costs drain the batteries of both endpoints in all
// simulated time; the per-node energy counters cover the measured window
// only. Each node's live quantities are refreshed once its role in the
// cascade ends, so battery-zero crossings caused by this instant's radio
// events are scheduled before the next event pops.
func (f *fieldSim) deliver(i int, te float64) error {
	measured := te >= f.warmup
	radio := &f.cfg.Radio
	for {
		n := &f.nodes[i]
		k := n.sess.Tokens(n.ids.outbox)
		if k == 0 {
			f.refresh(i)
			return nil
		}
		if err := n.sess.Inject(petri.Injection{Place: n.ids.outbox, Tokens: -k}); err != nil {
			return err
		}
		if n.parent == parentSink {
			// The sink absorbs its completed packets (uplink to the base
			// station is outside the field's energy budget).
			if measured {
				f.delivered += uint64(k)
			}
			f.refresh(i)
			return nil
		}
		if n.parent == parentNone {
			// The whole ancestor chain, sink included, is dead: there is
			// no live route, so the sender drops the packets without
			// transmitting (no energy spent).
			f.droppedNoRoute += uint64(k)
			f.refresh(i)
			return nil
		}
		p := &f.nodes[n.parent]
		bits := float64(k) * radio.PacketBits
		txJ := radio.TxJ(bits, n.dist)
		n.batt.DrainJ(txJ)
		f.touch(n.parent, te)
		p.batt.DrainJ(radio.RxJ(bits) + radio.AggregateJ(bits))
		if err := p.sess.StepTo(te); err != nil {
			return err
		}
		if err := p.sess.Inject(
			petri.Injection{Place: p.ids.p6, Tokens: k},
			petri.Injection{Place: p.ids.buffer, Tokens: k},
		); err != nil {
			return err
		}
		if measured {
			n.txPackets += uint64(k)
			n.txJ += txJ
			p.rxPackets += uint64(k)
			p.rxJ += radio.RxJ(bits)
			p.aggJ += radio.AggregateJ(bits)
		}
		f.refresh(i)
		i = n.parent
	}
}

// finish closes every surviving session at the horizon and assembles the
// result: CPU energy from the time-averaged state fractions and the power
// table, radio energy from the per-packet accounting, lifetime measured at
// the first battery-zero crossing when one happened and extrapolated from
// average draw otherwise. Dead nodes are assembled from the field layer's
// own incremental accounting — their sessions were closed at the crossing
// time, so nothing after death is counted.
func (f *fieldSim) finish() (*Result, error) {
	cfg := f.cfg
	out := &Result{
		Time:              cfg.Horizon,
		Nodes:             make([]NodeResult, len(f.nodes)),
		Delivered:         f.delivered,
		LifetimeSeconds:   math.Inf(1),
		Bottleneck:        -1,
		FirstDeathSeconds: math.Inf(1),
		Deaths:            f.deaths,
		DroppedInFlight:   f.droppedInFlight,
		DroppedNoRoute:    f.droppedNoRoute,
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		nr := NodeResult{
			ID:              n.node.ID,
			Parent:          f.parentID(n),
			Distance:        n.dist,
			SampleRate:      n.node.SampleRate,
			TxPackets:       n.txPackets,
			RxPackets:       n.rxPackets,
			TxEnergyJ:       n.txJ,
			RxEnergyJ:       n.rxJ,
			AggEnergyJ:      n.aggJ,
			DeathTime:       math.Inf(1),
			DeliveredBefore: f.delivered,
		}
		if n.alive {
			// Settle the tail interval so RemainingJ reflects continuous
			// draw up to the horizon (no crossing can hide in the tail:
			// it would have been scheduled and killed the node).
			f.touch(i, f.hz)
			res, err := n.sess.Finish()
			n.sess = nil
			if err != nil {
				return nil, fmt.Errorf("field: node %d: %w", n.node.ID, err)
			}
			nr.Samples = res.Firings[n.ids.ar]
			nr.Processed = res.Firings[n.ids.sr]
			nr.CPUFractions[energy.Standby] = res.PlaceAvg[n.ids.standby]
			nr.CPUFractions[energy.PowerUp] = res.PlaceAvg[n.ids.powerup]
			nr.CPUFractions[energy.Idle] = res.PlaceAvg[n.ids.idle]
			nr.CPUFractions[energy.Active] = res.PlaceAvg[n.ids.active]
			nr.CPUEnergyJ = cfg.CPU.Power.EnergyJoules(nr.CPUFractions, cfg.Horizon)
			nr.SenseEnergyJ = cfg.Radio.SenseJ(float64(nr.Samples) * cfg.Radio.PacketBits)
			nr.ListenEnergyJ = cfg.Radio.ListenMW * cfg.Horizon / 1000
			nr.RemainingJ = n.batt.RemainingJ()
		} else {
			aliveMeasured := 0.0
			if n.deathTime > f.warmup {
				aliveMeasured = math.Min(n.deathTime, f.hz) - f.warmup
			}
			nr.Samples = n.samplesAtDeath
			nr.Processed = n.processedAtDeath
			var cpuMWs float64
			for s, integral := range n.resInt {
				if aliveMeasured > 0 {
					nr.CPUFractions[s] = integral / aliveMeasured
				}
				cpuMWs += integral * cfg.CPU.Power.MW[s]
			}
			nr.CPUEnergyJ = cpuMWs / 1000
			nr.SenseEnergyJ = cfg.Radio.SenseJ(float64(nr.Samples) * cfg.Radio.PacketBits)
			// Listen draw accrues only while the node is alive — a dead
			// relay no longer listens.
			nr.ListenEnergyJ = cfg.Radio.ListenMW * aliveMeasured / 1000
			nr.Died = true
			nr.DeathTime = n.deathTime
			nr.DeliveredBefore = n.deliveredBefore
			nr.DroppedAtDeath = n.droppedAtDeath
		}
		nr.RadioEnergyJ = nr.TxEnergyJ + nr.RxEnergyJ + nr.AggEnergyJ + nr.SenseEnergyJ + nr.ListenEnergyJ
		nr.EnergyJ = nr.CPUEnergyJ + nr.RadioEnergyJ
		if n.alive {
			nr.AvgPowerMW = nr.EnergyJ / cfg.Horizon * 1000
			nr.LifetimeSeconds = cfg.Battery.LifetimeSeconds(nr.AvgPowerMW)
		} else {
			if alive := nr.DeathTime - f.warmup; alive > 0 {
				nr.AvgPowerMW = nr.EnergyJ / math.Min(alive, cfg.Horizon) * 1000
			}
			nr.LifetimeSeconds = nr.DeathTime
		}
		if math.IsNaN(nr.LifetimeSeconds) || nr.EnergyJ < 0 {
			return nil, fmt.Errorf("field: node %d: invalid energy accounting (%v J, lifetime %v s)",
				nr.ID, nr.EnergyJ, nr.LifetimeSeconds)
		}
		out.TotalEnergyJ += nr.EnergyJ
		if nr.LifetimeSeconds < out.LifetimeSeconds {
			out.LifetimeSeconds = nr.LifetimeSeconds
			out.Bottleneck = nr.ID
		}
		out.Nodes[i] = nr
	}
	if len(f.deaths) > 0 {
		// Measured beats extrapolated: the network lifetime is the exact
		// first crossing and the bottleneck is the node that died first.
		out.FirstDeathSeconds = f.deaths[0].Time
		out.LifetimeSeconds = f.deaths[0].Time
		out.Bottleneck = f.deaths[0].ID
	}
	if out.Bottleneck < 0 {
		// All lifetimes infinite (zero draw): call the sink the
		// bottleneck — resolved by its Parent == ID marker, not by slice
		// position (node 0 need not be the sink).
		for i := range out.Nodes {
			if out.Nodes[i].Parent == out.Nodes[i].ID {
				out.Bottleneck = out.Nodes[i].ID
				break
			}
		}
	}
	return out, nil
}

// parentID maps a nodeState's live parent index back to a node ID for
// reporting: the current routing parent (reroutes included), the node's own
// ID for the sink, and the original configured parent for a node left with
// no live route.
func (f *fieldSim) parentID(n *nodeState) int {
	switch {
	case n.parent >= 0:
		return f.nodes[n.parent].node.ID
	case n.parent == parentSink:
		return n.node.ID
	default:
		return n.node.Parent
	}
}

// ---------------------------------------------------------------------------
// Per-node event heap
//
// An indexed binary min-heap over (next event time, node index): the key
// array is indexed by node, update re-sifts in place. The index tie-break
// keeps the pop order deterministic under equal event times, which —
// together with per-node seeding — makes field trajectories independent of
// map iteration and node ordering.

type eventHeap struct {
	at   []float64
	heap []int
	pos  []int
}

func (h *eventHeap) init(n int) {
	h.at = make([]float64, n)
	h.heap = make([]int, 0, n)
	h.pos = make([]int, n)
	for i := range h.pos {
		h.at[i] = math.Inf(1)
		h.pos[i] = -1
	}
}

func (h *eventHeap) less(a, b int) bool {
	return h.at[a] < h.at[b] || (h.at[a] == h.at[b] && a < b)
}

// min returns the node with the earliest event, or (-1, +Inf) when no node
// has one scheduled.
func (h *eventHeap) min() (int, float64) {
	if len(h.heap) == 0 {
		return -1, math.Inf(1)
	}
	i := h.heap[0]
	return i, h.at[i]
}

// update sets node i's next event time (or +Inf to deschedule it).
func (h *eventHeap) update(i int, at float64) {
	if math.IsInf(at, 1) {
		h.remove(i)
		return
	}
	h.at[i] = at
	if h.pos[i] < 0 {
		h.pos[i] = len(h.heap)
		h.heap = append(h.heap, i)
		h.siftUp(h.pos[i])
		return
	}
	if !h.siftUp(h.pos[i]) {
		h.siftDown(h.pos[i])
	}
}

func (h *eventHeap) remove(i int) {
	at := h.pos[i]
	if at < 0 {
		return
	}
	h.at[i] = math.Inf(1)
	h.pos[i] = -1
	last := len(h.heap) - 1
	if at != last {
		moved := h.heap[last]
		h.heap[at] = moved
		h.pos[moved] = at
		h.heap = h.heap[:last]
		if !h.siftUp(at) {
			h.siftDown(at)
		}
	} else {
		h.heap = h.heap[:last]
	}
}

func (h *eventHeap) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		h.pos[h.heap[i]] = i
		h.pos[h.heap[parent]] = parent
		i = parent
		moved = true
	}
	return moved
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		smallest := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if h.less(h.heap[c], h.heap[smallest]) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		h.pos[h.heap[i]] = i
		h.pos[h.heap[smallest]] = smallest
		i = smallest
	}
}
