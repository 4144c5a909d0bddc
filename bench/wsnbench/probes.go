package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/markov"
	"repro/internal/petri"
	"repro/internal/shard"
	"repro/internal/sweepd"
	"repro/internal/xrand"
)

// Micro-probes time one layer's public functions in isolation, on fixed
// inputs, so that each end-to-end number can be broken down into the cost
// of its layers. They run at the start of every traced run.

// timeN runs f n times and returns each call's duration.
func timeN(n int, f func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(start)
	}
	return out, nil
}

// medianIn is the median duration in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

func runProbes(e *env) (map[string]float64, error) {
	m := map[string]float64{}
	for _, probe := range []func(*env, map[string]float64) error{probeXrand, probePetri, probeEstimators, probeRunner, probeShardSweepd} {
		if err := probe(e, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func probeXrand(e *env, m map[string]float64) error {
	const draws = 10_000_000
	r := xrand.New(e.seed)
	var sum float64
	d, _ := timeN(1, func(int) error {
		for range draws {
			sum += r.ExpFloat64()
		}
		return nil
	})
	m["xrand.exp_ns"] = float64(d[0]) / draws
	if mean := sum / draws; math.Abs(mean-1) > 0.01 {
		return fmt.Errorf("xrand: mean of %d exponential draws is %v, want 1", draws, mean)
	}
	var acc uint64
	d, _ = timeN(1, func(int) error {
		for range draws {
			acc ^= r.Uint64()
		}
		return nil
	})
	m["xrand.u64_ns"] = float64(d[0]) / draws
	if acc == 0 {
		return fmt.Errorf("xrand: %d Uint64 draws XOR to zero", draws)
	}
	return nil
}

func probePetri(e *env, m map[string]float64) error {
	cfg := core.PaperConfig()
	net := core.BuildCPUNet(cfg)
	d, err := timeN(50, func(int) error { _, err := petri.Compile(net); return err })
	if err != nil {
		return err
	}
	m["petri.compile_us"] = medianIn(d, time.Microsecond)

	comp, err := petri.Compile(net)
	if err != nil {
		return err
	}
	perEvent := make([]float64, 10)
	for i := range perEvent {
		start := time.Now()
		res, err := comp.Simulate(petri.SimOptions{Seed: e.seed + uint64(i), Duration: 1000})
		if err != nil {
			return err
		}
		var firings uint64
		for _, f := range res.Firings {
			firings += f
		}
		perEvent[i] = float64(time.Since(start)) / float64(firings)
	}
	m["petri.event_ns"] = median(perEvent)

	// Sessions on a field node's net, driven the way the field drives them.
	node := field.BuildNodeNet(cfg, cfg.Lambda)
	nc, err := petri.Compile(node)
	if err != nil {
		return err
	}
	p6, _ := node.PlaceByName(core.PlaceP6)
	buf, _ := node.PlaceByName(core.PlaceCPUBuffer)
	opt := func(i int) petri.SimOptions { return petri.SimOptions{Seed: e.seed + uint64(i), Duration: 1000} }
	var sessions []*petri.Session
	d, err = timeN(200, func(i int) error {
		s, err := nc.OpenSession(context.Background(), opt(i))
		sessions = append(sessions, s)
		return err
	})
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
	if err != nil {
		return err
	}
	m["petri.session_open_us"] = medianIn(d, time.Microsecond)

	const steps = 1000
	s, err := nc.OpenSession(context.Background(), opt(0))
	if err != nil {
		return err
	}
	defer s.Close()
	var step, inject time.Duration
	for k := 1; k <= steps; k++ {
		start := time.Now()
		if err := s.StepTo(float64(k)); err != nil {
			return err
		}
		step += time.Since(start)
		start = time.Now()
		if err := s.Inject(petri.Injection{Place: p6, Tokens: 1}, petri.Injection{Place: buf, Tokens: 1}); err != nil {
			return err
		}
		inject += time.Since(start)
	}
	m["petri.stepto_ns"] = float64(step) / steps
	m["petri.inject_ns"] = float64(inject) / steps
	return nil
}

func probeEstimators(e *env, m map[string]float64) error {
	cfg := core.PaperConfig()
	cfg.Seed = e.seed
	ctx := context.Background()
	for _, p := range []struct {
		name string
		est  core.Estimator
		n    int
		unit time.Duration
	}{
		{"core.est_sim_ms", core.Simulation{}, 3, time.Millisecond},
		{"core.est_petri_ms", core.PetriNet{}, 3, time.Millisecond},
		{"core.est_markov_us", core.Markov{}, 200, time.Microsecond},
	} {
		d, err := timeN(p.n, func(int) error { _, err := p.est.EstimateContext(ctx, cfg); return err })
		if err != nil {
			return err
		}
		m[p.name] = medianIn(d, p.unit)
	}
	// The Erlang ablation's solves at the paper's longest power-up delay.
	for _, k := range []int{32, 64} {
		d, err := timeN(3, func(int) error {
			_, err := markov.ErlangCPU{Lambda: cfg.Lambda, Mu: cfg.Mu, T: cfg.PDT, D: 10, K: k}.Solve()
			return err
		})
		if err != nil {
			return err
		}
		m[fmt.Sprintf("markov.erlang%d_ms", k)] = medianIn(d, time.Millisecond)
	}
	return nil
}

func probeRunner(e *env, m map[string]float64) error {
	cfg := core.PaperConfig()
	cfg.Seed = e.seed
	ctx := context.Background()
	r, err := core.NewRunner(core.WithConfig(cfg), core.WithMethods(core.MethodSpecs()...),
		core.WithParallelism(e.nproc), core.WithCacheBackend(core.NewMemoryBackend()))
	if err != nil {
		return err
	}
	scenario := func(i int) core.Scenario {
		c := cfg
		c.PDT = 0.1 * float64(i)
		return core.Scenario{Config: c}
	}
	miss, err := timeN(3, func(i int) error { _, err := r.Run(ctx, scenario(i)); return err })
	if err != nil {
		return err
	}
	hit, err := timeN(200, func(i int) error { _, err := r.Run(ctx, scenario(i%3)); return err })
	if err != nil {
		return err
	}
	m["core.run_miss_ms"] = medianIn(miss, time.Millisecond)
	m["core.run_hit_us"] = medianIn(hit, time.Microsecond)

	fb, err := core.NewFileBackend(filepath.Join(e.workdir, "probe-filecache"))
	if err != nil {
		return err
	}
	key := func(i int) core.CacheKey {
		return core.CacheKey{Config: scenario(i).Config, Method: "Markov", Estimator: "repro/internal/core.Markov"}
	}
	put, err := timeN(200, func(i int) error { return fb.Put(key(i), core.Estimate{Method: "Markov", EnergyJ: float64(i)}) })
	if err != nil {
		return err
	}
	get, err := timeN(200, func(i int) error {
		est, ok, err := fb.Get(key(i))
		if err == nil && (!ok || est.EnergyJ != float64(i)) {
			err = fmt.Errorf("file cache lost entry %d", i)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["core.filecache_put_us"] = medianIn(put, time.Microsecond)
	m["core.filecache_get_us"] = medianIn(get, time.Microsecond)
	return nil
}

// probeShardSweepd times planning, merging, and the coordinator's
// submit/lease/results calls called directly — durable and in memory — on
// a Table-4 sweep whose result sets were computed up front.
func probeShardSweepd(e *env, m map[string]float64) error {
	opt, err := cliOptions(e.seed, e.nproc)
	if err != nil {
		return err
	}
	man, scenarios, err := tableManifest(opt, core.MethodSpecs())
	if err != nil {
		return err
	}
	// The in-process baseline of a cold sweep: the same manifest through
	// one Runner with an empty cache.
	var runner *core.Runner
	var results []core.Result
	d, err := timeN(3, func(int) error {
		runner, err = man.Runner.NewRunner(core.WithParallelism(e.nproc), core.WithCacheBackend(core.NewMemoryBackend()))
		if err == nil {
			results, err = runner.RunAll(context.Background(), scenarios)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["core.runall_table4_ms"] = medianIn(d, time.Millisecond)
	all, err := shard.NewResultSet(0, results)
	if err != nil {
		return err
	}
	ids, err := core.EstimatorIDs(core.MethodSpecs()...)
	if err != nil {
		return err
	}
	costs := runner.CostSnapshot()
	weight := func(s core.Scenario) float64 { return costs.ScenarioSeconds(s.Config, ids) }
	var planned *shard.Manifest
	d, err = timeN(200, func(int) error {
		planned, err = shard.NewManifestWeighted("table4", man.Runner, scenarios, sweepd.DefaultPartitions, weight)
		return err
	})
	if err != nil {
		return err
	}
	m["shard.plan_us"] = medianIn(d, time.Microsecond)

	sets := make([]*shard.ResultSet, len(planned.Shards))
	for i, sh := range planned.Shards {
		sets[i] = &shard.ResultSet{Version: shard.ResultSetVersion, ShardIndex: i}
		for _, it := range sh.Items {
			sets[i].Results = append(sets[i].Results, all.Results[it.Index])
		}
	}
	d, err = timeN(50, func(int) error { _, err := shard.Merge(planned, sets); return err })
	if err != nil {
		return err
	}
	m["shard.merge_us"] = medianIn(d, time.Microsecond)

	for _, durable := range []bool{true, false} {
		sub, lease, res, err := probeCoordinator(e, durable, man, all.Results)
		if err != nil {
			return err
		}
		kind := map[bool]string{true: "durable", false: "memory"}[durable]
		m["sweepd.submit_us."+kind] = medianIn(sub, time.Microsecond)
		m["sweepd.lease_us."+kind] = medianIn(lease, time.Microsecond)
		m["sweepd.results_us."+kind] = medianIn(res, time.Microsecond)
	}

	j, err := sweepd.OpenJournal(filepath.Join(e.workdir, "probe-journal"))
	if err != nil {
		return err
	}
	d, err = timeN(40, func(i int) error { _, err := j.WriteResults("s1", sets[i%len(sets)]); return err })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m["sweepd.write_results_ms"] = medianIn(d, time.Millisecond)
	return nil
}

// probeCoordinator drives ten sweeps through a coordinator's methods,
// answering every lease with the precomputed results of its partition.
// Each sweep gets a fresh coordinator, because a durable one rewrites a
// snapshot of every sweep it has seen whenever one completes.
func probeCoordinator(e *env, durable bool, man *shard.Manifest, items []shard.ResultItem) (sub, lease, res []time.Duration, err error) {
	for i := range 10 {
		var c *sweepd.Coordinator
		dir := filepath.Join(e.workdir, fmt.Sprintf("probe-coord-%d", i))
		if durable {
			if c, err = sweepd.Open(sweepd.Options{StateDir: dir}); err != nil {
				return
			}
			if err = c.Recover(); err != nil {
				c.Shutdown(0)
				return
			}
		} else {
			c = sweepd.NewCoordinator(sweepd.Options{})
		}
		err = probeSweep(c, man, items, &sub, &lease, &res)
		c.Shutdown(0)
		if err != nil {
			return
		}
	}
	return
}

func probeSweep(c *sweepd.Coordinator, man *shard.Manifest, items []shard.ResultItem, sub, lease, res *[]time.Duration) error {
	start := time.Now()
	resp, err := c.Submit(sweepd.SubmitRequest{Version: sweepd.ProtocolVersion, Manifest: man})
	if err != nil {
		return err
	}
	*sub = append(*sub, time.Since(start))
	for {
		start = time.Now()
		l, err := c.Lease(sweepd.LeaseRequest{Version: sweepd.ProtocolVersion, Worker: "probe"})
		if err != nil {
			return err
		}
		if l.Status != sweepd.LeaseWork {
			break
		}
		*lease = append(*lease, time.Since(start))
		rs := &shard.ResultSet{Version: shard.ResultSetVersion, ShardIndex: l.Shard.Index}
		for _, it := range l.Shard.Items {
			rs.Results = append(rs.Results, items[it.Index])
		}
		start = time.Now()
		if err := c.Results(l.LeaseID, sweepd.ResultSubmission{Version: sweepd.ProtocolVersion, Results: rs}); err != nil {
			return err
		}
		*res = append(*res, time.Since(start))
	}
	st, err := c.SweepStatus(resp.ID)
	if err != nil {
		return err
	}
	if st.State != sweepd.StateDone {
		return fmt.Errorf("probe sweep %s ended %s, not done", resp.ID, st.State)
	}
	return nil
}
