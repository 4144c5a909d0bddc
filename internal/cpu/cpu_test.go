package cpu

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/queueing"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// paperConfig returns the paper's Table 2 operating point.
func paperConfig(pdt, pud float64) Config {
	return Config{
		Arrivals: workload.NewPoisson(1),
		Service:  dist.ExpMean(0.1),
		PDT:      pdt,
		PUD:      pud,
		SimTime:  20000,
		Warmup:   100,
		Seed:     1,
	}
}

func TestValidate(t *testing.T) {
	good := paperConfig(0.5, 0.001)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Arrivals = nil },
		func(c *Config) { c.Closed = &workload.Closed{Customers: 1, Think: dist.ExpMean(1)} }, // both set
		func(c *Config) { c.Service = nil },
		func(c *Config) { c.PDT = -1 },
		func(c *Config) { c.PUD = -1 },
		func(c *Config) { c.SimTime = 0 },
		func(c *Config) { c.Warmup = -1 },
	}
	for i, mutate := range cases {
		c := paperConfig(0.5, 0.001)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateNonFinite: NaN and ±Inf are rejected in every delay and
// horizon under every policy, naming the field; never sleeping is a
// policy, not PDT = +Inf.
func TestValidateNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"PDT", func(c *Config, v float64) { c.PDT = v }},
		{"PUD", func(c *Config, v float64) { c.PUD = v }},
		{"SimTime", func(c *Config, v float64) { c.SimTime = v }},
		{"Warmup", func(c *Config, v float64) { c.Warmup = v }},
	}
	for _, policy := range []Policy{PolicyTimeout, PolicyNeverSleep, PolicyAlwaysSleep} {
		for _, f := range fields {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				c := paperConfig(0.5, 0.001)
				c.Policy = policy
				f.set(&c, v)
				err := c.Validate()
				if err == nil || !strings.Contains(err.Error(), f.name) {
					t.Errorf("%v, %s = %v: Validate() = %v, want an error naming %s", policy, f.name, v, err, f.name)
				}
			}
		}
	}
}

func TestFractionsSumToOne(t *testing.T) {
	res, err := Run(paperConfig(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Fractions.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationIsRho: work conservation fixes the active share at
// lambda/mu regardless of the power policy.
func TestUtilizationIsRho(t *testing.T) {
	for _, pud := range []float64{0.001, 0.3, 10} {
		res, err := Run(paperConfig(0.5, pud))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Fractions[energy.Active]-0.1) > 0.01 {
			t.Fatalf("PUD=%v: active = %v, want ~0.1", pud, res.Fractions[energy.Active])
		}
	}
}

// TestIdleStandbySplit: with negligible PUD, idle periods are Exp(lambda)
// and split at the threshold: idle share : standby share =
// (1 - e^{-λT}) : e^{-λT} of the non-busy time.
func TestIdleStandbySplit(t *testing.T) {
	const T = 0.5
	res, err := Run(paperConfig(T, 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	idle, standby := res.Fractions[energy.Idle], res.Fractions[energy.Standby]
	gotRatio := idle / standby
	wantRatio := math.Expm1(T) // λ = 1
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.08 {
		t.Fatalf("idle:standby = %v, want ~%v", gotRatio, wantRatio)
	}
}

// TestMM1LimitNeverSleep: PolicyNeverSleep turns the model into M/M/1.
func TestMM1LimitNeverSleep(t *testing.T) {
	cfg := paperConfig(0.5, 0.001)
	cfg.Policy = PolicyNeverSleep
	cfg.Arrivals = workload.NewPoisson(2)
	cfg.Service = dist.ExpMean(0.25) // rho = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := queueing.MM1{Lambda: 2, Mu: 4}
	if math.Abs(res.Fractions[energy.Active]-ref.Rho()) > 0.01 {
		t.Fatalf("utilization = %v, want %v", res.Fractions[energy.Active], ref.Rho())
	}
	if res.Fractions[energy.Standby] != 0 || res.Fractions[energy.PowerUp] != 0 {
		t.Fatal("never-sleep policy entered standby/powerup")
	}
	if math.Abs(res.MeanJobs-ref.MeanJobs())/ref.MeanJobs() > 0.06 {
		t.Fatalf("L = %v, want ~%v", res.MeanJobs, ref.MeanJobs())
	}
	if math.Abs(res.MeanLatency-ref.MeanLatency())/ref.MeanLatency() > 0.06 {
		t.Fatalf("W = %v, want ~%v", res.MeanLatency, ref.MeanLatency())
	}
}

// TestLittlesLaw: L = lambda W must hold within noise for the measured
// window.
func TestLittlesLaw(t *testing.T) {
	res, err := Run(paperConfig(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	lambdaEff := float64(res.JobsServed) / 20000
	if math.Abs(res.MeanJobs-lambdaEff*res.MeanLatency)/res.MeanJobs > 0.05 {
		t.Fatalf("Little's law: L=%v vs λW=%v", res.MeanJobs, lambdaEff*res.MeanLatency)
	}
}

// TestAlwaysSleepMatchesSetupQueue: PolicyAlwaysSleep with exponential
// wake-up is the classical M/M/1-with-setup queue; compare E[N] with the
// closed form.
func TestAlwaysSleepMatchesSetupQueue(t *testing.T) {
	const lambda, mu, theta = 1.0, 5.0, 2.0
	cfg := Config{
		Arrivals: workload.NewPoisson(lambda),
		Service:  dist.ExpMean(1 / mu),
		Policy:   PolicyAlwaysSleep,
		// Exponential PUD is modeled by giving PUD as the mean of an
		// exponential via a trick below; Run uses constant PUD, so here
		// we check only the OffProb/SetupProb structure with constant
		// setup ~ small and fall back to the M/M/1 limit.
		PUD:     1e-9,
		SimTime: 20000,
		Warmup:  100,
		Seed:    3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With negligible setup time, always-sleep looks like M/M/1 for jobs;
	// the CPU is in standby whenever the system is empty.
	ref := queueing.MM1{Lambda: lambda, Mu: mu}
	if math.Abs(res.Fractions[energy.Standby]-(1-ref.Rho())) > 0.01 {
		t.Fatalf("standby = %v, want %v", res.Fractions[energy.Standby], 1-ref.Rho())
	}
	if math.Abs(res.MeanJobs-ref.MeanJobs())/ref.MeanJobs() > 0.06 {
		t.Fatalf("L = %v, want ~%v", res.MeanJobs, ref.MeanJobs())
	}
	_ = theta // theta reserved for the Erlang/exponential setup variant (X-4)
}

// TestConstantSetupQueueLength: with PDT=0 and constant setup D, mean queue
// length grows with D; sanity-check against the M/G/1-type lower bound
// (M/M/1 value) and a generous upper bound.
func TestConstantSetupBacklogGrowsWithD(t *testing.T) {
	prev := -1.0
	for _, d := range []float64{0.001, 0.5, 2, 10} {
		cfg := paperConfig(0, d)
		cfg.Seed = 7
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanJobs <= prev {
			t.Fatalf("MeanJobs did not grow with D=%v: %v <= %v", d, res.MeanJobs, prev)
		}
		prev = res.MeanJobs
	}
}

func TestPowerUpFractionMatchesCycleAnalysis(t *testing.T) {
	// With PDT=0 every busy period is preceded by one power-up of D
	// seconds, and cycles repeat: E[standby] = 1/λ, E[powerup] = D,
	// busy = work of jobs arriving during (powerup + busy). For D small,
	// powerup fraction ≈ D/(1/λ + D + busyE) where busyE ≈ ρ(...)
	// Rather than the full algebra we verify the powerup share equals
	// cycles*D / simtime.
	cfg := paperConfig(0, 0.3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.PowerCycles) * 0.3 / 20000
	if math.Abs(res.Fractions[energy.PowerUp]-want) > 0.01 {
		t.Fatalf("powerup share %v, want ~cycles*D/T = %v", res.Fractions[energy.PowerUp], want)
	}
}

func TestDeterminism(t *testing.T) {
	r1, err := Run(paperConfig(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(paperConfig(0.5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fractions != r2.Fractions || r1.JobsServed != r2.JobsServed {
		t.Fatal("same seed gave different results")
	}
	cfg := paperConfig(0.5, 0.3)
	cfg.Seed = 999
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fractions == r3.Fractions {
		t.Fatal("different seeds gave identical results")
	}
}

func TestWarmupExcludesTransient(t *testing.T) {
	// Starting in standby biases early measurements toward standby; a
	// warmup long enough wipes the bias. Compare a long-warmup short
	// window against theory at T=0 (standby = 1-rho).
	cfg := paperConfig(0, 1e-9)
	cfg.Warmup = 5000
	cfg.SimTime = 20000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Fractions[energy.Standby]-0.9) > 0.01 {
		t.Fatalf("standby = %v, want ~0.9", res.Fractions[energy.Standby])
	}
}

func TestClosedWorkload(t *testing.T) {
	// A single customer alternating think (mean 1) and service (mean
	// 0.1): utilization = 0.1/(1.1) by renewal-reward (with no power
	// management interference when PDT is large).
	cfg := Config{
		Closed:  &workload.Closed{Customers: 1, Think: dist.ExpMean(1)},
		Service: dist.ExpMean(0.1),
		Policy:  PolicyNeverSleep,
		SimTime: 20000,
		Warmup:  100,
		Seed:    5,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 / 1.1
	if math.Abs(res.Fractions[energy.Active]-want) > 0.01 {
		t.Fatalf("closed utilization = %v, want ~%v", res.Fractions[energy.Active], want)
	}
	// A single customer can never queue behind itself.
	if res.MaxQueue > 1 {
		t.Fatalf("MaxQueue = %d for a single closed customer", res.MaxQueue)
	}
}

func TestClosedWorkloadMoreCustomersMoreLoad(t *testing.T) {
	util := func(n int) float64 {
		cfg := Config{
			Closed:  &workload.Closed{Customers: n, Think: dist.ExpMean(1)},
			Service: dist.ExpMean(0.1),
			Policy:  PolicyNeverSleep,
			SimTime: 10000,
			Warmup:  100,
			Seed:    6,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fractions[energy.Active]
	}
	if !(util(1) < util(4) && util(4) < util(16)) {
		t.Fatal("closed-workload utilization not increasing in population")
	}
}

func TestTraceWorkloadStops(t *testing.T) {
	cfg := Config{
		Arrivals: workload.NewTrace([]float64{1, 1, 1}),
		Service:  dist.NewDeterministic(0.5),
		PDT:      0.25,
		PUD:      0.125,
		SimTime:  100,
		Seed:     1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsServed != 3 {
		t.Fatalf("served %d jobs from a 3-job trace", res.JobsServed)
	}
	// After the trace ends the CPU must end up in standby.
	if res.Fractions[energy.Standby] < 0.9 {
		t.Fatalf("standby share = %v; CPU did not settle", res.Fractions[energy.Standby])
	}
}

func TestReplications(t *testing.T) {
	cfg := paperConfig(0.5, 0.3)
	cfg.SimTime = 1000
	rep, err := RunReplications(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != 16 {
		t.Fatalf("Replications = %d", rep.Replications)
	}
	f := rep.MeanFractions()
	if err := f.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	if rep.FractionCI(energy.Active) <= 0 {
		t.Fatal("zero CI over 16 replications")
	}
	if math.Abs(f[energy.Active]-0.1) > 3*rep.FractionCI(energy.Active)+0.01 {
		t.Fatalf("active = %v ± %v, want ~0.1", f[energy.Active], rep.FractionCI(energy.Active))
	}
}

func TestReplicationsValidation(t *testing.T) {
	if _, err := RunReplications(paperConfig(0.5, 0.3), 0); err == nil {
		t.Fatal("zero replications accepted")
	}
}

func TestEnergyJoules(t *testing.T) {
	res, err := Run(paperConfig(0.5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	e := res.EnergyJoules(energy.PXA271, 1000)
	if e < 17 || e > 193 {
		t.Fatalf("energy = %v J outside [17, 193]", e)
	}
}

// TestMD1MatchesPollaczekKhinchine: deterministic service under
// never-sleep is an M/D/1 queue; the simulated mean latency must match the
// Pollaczek–Khinchine formula.
func TestMD1MatchesPollaczekKhinchine(t *testing.T) {
	const lambda, es = 2.0, 0.25 // rho = 0.5
	cfg := Config{
		Arrivals: workload.NewPoisson(lambda),
		Service:  dist.NewDeterministic(es),
		Policy:   PolicyNeverSleep,
		SimTime:  40000,
		Warmup:   200,
		Seed:     41,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := queueing.MG1{Lambda: lambda, ES: es, ES2: es * es}
	wantW := ref.MeanWait() + es
	if math.Abs(res.MeanLatency-wantW)/wantW > 0.04 {
		t.Fatalf("M/D/1 latency = %v, want ~%v (PK)", res.MeanLatency, wantW)
	}
	if math.Abs(res.MeanJobs-ref.MeanJobs())/ref.MeanJobs() > 0.05 {
		t.Fatalf("M/D/1 E[N] = %v, want ~%v", res.MeanJobs, ref.MeanJobs())
	}
}

// TestMH2MatchesPollaczekKhinchine: hyper-exponential service (CV > 1)
// against the same formula, covering the other side of M/M/1.
func TestMH2MatchesPollaczekKhinchine(t *testing.T) {
	const lambda = 1.0
	h := dist.NewHyperExponential([]float64{0.6, 0.4}, []float64{10, 1})
	es := h.Mean()
	es2 := h.Var() + es*es
	cfg := Config{
		Arrivals: workload.NewPoisson(lambda),
		Service:  h,
		Policy:   PolicyNeverSleep,
		SimTime:  60000,
		Warmup:   200,
		Seed:     42,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := queueing.MG1{Lambda: lambda, ES: es, ES2: es2}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	wantW := ref.MeanWait() + es
	if math.Abs(res.MeanLatency-wantW)/wantW > 0.06 {
		t.Fatalf("M/H2/1 latency = %v, want ~%v (PK)", res.MeanLatency, wantW)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyTimeout.String() != "timeout" || PolicyNeverSleep.String() != "never-sleep" || PolicyAlwaysSleep.String() != "always-sleep" {
		t.Fatal("Policy.String wrong")
	}
}

func BenchmarkRunPaperSecond(b *testing.B) {
	cfg := paperConfig(0.5, 0.001)
	cfg.SimTime = 1000
	cfg.Warmup = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllocsIndependentOfHorizon: the event loop allocates nothing per
// event, so a run 100 times longer makes exactly as many allocations.
func TestRunAllocsIndependentOfHorizon(t *testing.T) {
	closed := paperConfig(0.5, 0.001)
	closed.Arrivals = nil
	closed.Closed = &workload.Closed{Customers: 5, Think: dist.ExpMean(1)}
	for name, cfg := range map[string]Config{"open": paperConfig(0.5, 0.001), "closed-5": closed} {
		allocs := func(simTime float64) float64 {
			c := cfg
			c.SimTime = simTime
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(100), allocs(10000); short != long {
			t.Errorf("%s: %v allocs for 100 s but %v for 10,000 s", name, short, long)
		}
	}
}

// TestPendingEventsBounded: cancelling the power-down timer removes it, so
// even with a 1e4 s timer re-armed in every idle period the pending set
// never exceeds the CPU's event plus one per customer or open source.
func TestPendingEventsBounded(t *testing.T) {
	closed := paperConfig(1e4, 0.3)
	closed.Arrivals = nil
	closed.Closed = &workload.Closed{Customers: 3, Think: dist.ExpMean(1)}
	for name, cfg := range map[string]Config{"open": paperConfig(1e4, 0.3), "closed-3": closed} {
		customers := 1
		if cfg.Closed != nil {
			customers = cfg.Closed.Customers
		}
		s, err := newSim(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for h := 1.0; h <= 20000; h++ {
			if err := s.run(context.Background(), h); err != nil {
				t.Fatal(err)
			}
			n := len(s.arrivals)
			if s.server.kind != noEvent {
				n++
			}
			if n > 2+customers {
				t.Fatalf("%s: %d events pending at t=%v, want at most %d", name, n, h, 2+customers)
			}
		}
		if s.now != 20000 {
			t.Fatalf("%s: clock at %v after running to 20000", name, s.now)
		}
	}
}

// constDist always samples v, which the shipped constructors would refuse.
type constDist float64

func (d constDist) Sample(*xrand.Rand) float64 { return float64(d) }
func (d constDist) Mean() float64              { return float64(d) }
func (d constDist) Var() float64               { return 0 }
func (d constDist) String() string             { return "const" }

// constSource spaces arrivals by a fixed gap, which may be invalid.
type constSource float64

func (g constSource) Next(*xrand.Rand) float64 { return float64(g) }
func (g constSource) Rate() float64            { return 0 }
func (g constSource) String() string           { return "const-gap" }

// TestBadSampledDelayFailsRun: a negative, NaN or infinite delay from a
// service, think or arrival law is an error naming its source, not a
// panic.
func TestBadSampledDelayFailsRun(t *testing.T) {
	open := func(gap workload.Source, svc dist.Distribution) Config {
		return Config{Arrivals: gap, Service: svc, PDT: 0.5, PUD: 0.001, SimTime: 100, Seed: 1}
	}
	closed := func(think dist.Distribution) Config {
		return Config{
			Closed:  &workload.Closed{Customers: 2, Think: think},
			Service: dist.ExpMean(0.1), PDT: 0.5, SimTime: 100, Seed: 1,
		}
	}
	cases := []struct {
		name, source string
		cfg          Config
	}{
		{"negative-service", "service", open(workload.NewPoisson(1), dist.Deterministic{Value: -1})},
		{"nan-service", "service", open(workload.NewPoisson(1), constDist(math.NaN()))},
		{"inf-service", "service", open(workload.NewPoisson(1), constDist(math.Inf(1)))},
		{"nan-think", "think", closed(constDist(math.NaN()))},
		{"negative-think", "think", closed(constDist(-1))},
		{"inf-think", "think", closed(constDist(math.Inf(1)))},
		{"negative-gap", "arrival", open(constSource(-1), dist.ExpMean(0.1))},
		{"nan-gap", "arrival", open(constSource(math.NaN()), dist.ExpMean(0.1))},
		{"minus-inf-gap", "arrival", open(constSource(math.Inf(-1)), dist.ExpMean(0.1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.source) {
				t.Fatalf("Run returned %v, want an error naming %q", err, tc.source)
			}
			if _, err := RunReplications(tc.cfg, 2); err == nil {
				t.Fatal("RunReplications accepted the bad delay")
			}
		})
	}
	// +Inf from an open source ends it rather than failing the run.
	if _, err := Run(open(constSource(math.Inf(1)), dist.ExpMean(0.1))); err != nil {
		t.Fatalf("exhausted source failed the run: %v", err)
	}
}
