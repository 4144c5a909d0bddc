// Package shard is the planner and merger under the sweep service
// (internal/sweepd). Plan partitions a scenario list deterministically, a
// Manifest carries the partition and the Runner parameters to workers as
// JSON, each worker reports its completed scenarios as a ResultSet, and
// Merge reassembles the sets in input order with conflict detection;
// MissingFrom and Replan rebuild the work queue after a worker is lost.
//
// Placement independence is by construction, not by coordination: the
// Runner derives every scenario's RNG seed from the master seed and the
// scenario's configuration content (never from batch position or worker
// identity), so a scenario produces bit-identical results whichever shard —
// or how many shards — it runs in. A sweep split N ways and merged is
// therefore byte-identical to the same sweep run in one process.
package shard

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// ManifestVersion is the schema version of the shard-manifest JSON;
// Validate rejects manifests written under any other version.
const ManifestVersion = 1

// Item is one scenario of the batch, tagged with its global position so
// shards can be merged back into input order.
type Item struct {
	// Index is the scenario's position in the original batch.
	Index int `json:"index"`
	// Name labels the scenario (core.Scenario.Name).
	Name string `json:"name,omitempty"`
	// Config is the scenario's full configuration.
	Config core.Config `json:"config"`
}

// Scenario converts the item back to the Runner's scenario shape.
func (it Item) Scenario() core.Scenario {
	return core.Scenario{Name: it.Name, Config: it.Config}
}

// Shard is one worker's slice of the batch.
type Shard struct {
	// Index identifies the shard within its plan (0-based).
	Index int `json:"index"`
	// Items lists the shard's scenarios with their global indices.
	Items []Item `json:"items"`
}

// RunnerSpec carries the Runner parameters every worker must agree on for
// the merged output to equal a single-process run.
type RunnerSpec struct {
	// Base is the base model configuration (core.WithConfig).
	Base core.Config `json:"base"`
	// Seed is the master seed (core.WithSeed).
	Seed uint64 `json:"seed"`
	// Methods are the estimator specs resolved through the registry, in
	// estimator order (core.WithMethods).
	Methods []string `json:"methods"`
	// DeriveSeeds mirrors core.WithSeedDerivation.
	DeriveSeeds bool `json:"derive_seeds"`
}

// NewRunner builds the worker-side Runner from the spec. Extra options
// (parallelism, cache backend) are appended after the spec's own, so they
// may refine but not contradict it.
func (sp RunnerSpec) NewRunner(extra ...core.RunnerOption) (*core.Runner, error) {
	opts := []core.RunnerOption{
		core.WithConfig(sp.Base),
		core.WithSeed(sp.Seed),
		core.WithMethods(sp.Methods...),
		core.WithSeedDerivation(sp.DeriveSeeds),
	}
	return core.NewRunner(append(opts, extra...)...)
}

// Manifest is the JSON document a sweep client submits and every worker
// and the merger read back: the full partition plus everything needed to
// reconstruct identical Runners.
type Manifest struct {
	// Version is ManifestVersion at write time.
	Version int `json:"version"`
	// Experiment optionally names the artifact the plan serves (e.g.
	// "table4"), for self-describing pipelines; the shard machinery itself
	// does not interpret it.
	Experiment string `json:"experiment,omitempty"`
	// Runner is the shared Runner parameterization.
	Runner RunnerSpec `json:"runner"`
	// Total is the scenario count of the original batch.
	Total int `json:"total_scenarios"`
	// Extra carries coordinator-specific context the shard machinery does
	// not interpret — e.g. the sweep axes a renderer needs at merge time.
	Extra json.RawMessage `json:"extra,omitempty"`
	// Shards is the partition; concatenated in order, the shards' items
	// restore the original batch exactly.
	Shards []Shard `json:"shards"`
}

// Plan partitions scenarios into n shards deterministically: contiguous,
// balanced slices (the first total%n shards take one extra scenario).
// Every scenario appears in exactly one shard, tagged with its global
// index. Shards may be empty when n exceeds the scenario count.
//
// Because Runner seeds are content-derived, the partition is purely a
// load-balancing choice: any assignment yields the same per-scenario
// results.
func Plan(scenarios []core.Scenario, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", n)
	}
	shards := make([]Shard, n)
	total := len(scenarios)
	next := 0
	for i := range shards {
		size := total / n
		if i < total%n {
			size++
		}
		items := make([]Item, 0, size)
		for j := 0; j < size; j++ {
			s := scenarios[next]
			items = append(items, Item{Index: next, Name: s.Name, Config: s.Config})
			next++
		}
		shards[i] = Shard{Index: i, Items: items}
	}
	return shards, nil
}

// WeightFunc scores one scenario's predicted cost (e.g. in seconds) for
// cost-weighted planning. Non-positive and NaN weights count as one unit,
// so a partially trained cost model degrades shard by shard to count
// balancing instead of producing degenerate partitions.
type WeightFunc func(core.Scenario) float64

// PlanWeighted partitions scenarios into n contiguous shards balancing the
// total weight per shard rather than the scenario count: a grid whose
// expensive rows cluster at one end (long-horizon scenarios sort together
// in sweep order) no longer hands one worker all the slow points. A nil
// weight function is exactly Plan.
//
// The partition is deterministic in (scenarios, n, weights): each shard is
// closed greedily against the ideal remaining-weight-per-remaining-shard
// target. Like Plan, the partition is purely a load-balancing choice —
// content-derived seeds make any assignment produce identical per-scenario
// results — so replanning with a retrained cost table changes wall-clock
// balance, never output.
func PlanWeighted(scenarios []core.Scenario, n int, weight WeightFunc) ([]Shard, error) {
	if weight == nil {
		return Plan(scenarios, n)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", n)
	}
	weights := make([]float64, len(scenarios))
	remaining := 0.0
	for i, s := range scenarios {
		w := weight(s)
		if !(w > 0) { // non-positive or NaN: treat as one unit of work
			w = 1
		}
		weights[i] = w
		remaining += w
	}
	shards := make([]Shard, n)
	next := 0
	for i := range shards {
		items := []Item{}
		if left := n - i; left > 0 && next < len(scenarios) {
			target := remaining / float64(left)
			acc := 0.0
			for next < len(scenarios) {
				w := weights[next]
				// Take the scenario if it brings the shard closer to (or is
				// the first step toward) the ideal target; the last shard
				// takes everything left.
				if len(items) > 0 && i < n-1 && acc+w/2 > target {
					break
				}
				s := scenarios[next]
				items = append(items, Item{Index: next, Name: s.Name, Config: s.Config})
				acc += w
				next++
			}
			remaining -= acc
		}
		shards[i] = Shard{Index: i, Items: items}
	}
	return shards, nil
}

// NewManifest plans the batch and wraps it with the Runner spec.
func NewManifest(experiment string, spec RunnerSpec, scenarios []core.Scenario, n int) (*Manifest, error) {
	return NewManifestWeighted(experiment, spec, scenarios, n, nil)
}

// NewManifestWeighted is NewManifest with a cost-weighted partition: the
// form a coordinator uses once it has a trained per-method cost model.
func NewManifestWeighted(experiment string, spec RunnerSpec, scenarios []core.Scenario, n int, weight WeightFunc) (*Manifest, error) {
	shards, err := PlanWeighted(scenarios, n, weight)
	if err != nil {
		return nil, err
	}
	return &Manifest{
		Version:    ManifestVersion,
		Experiment: experiment,
		Runner:     spec,
		Total:      len(scenarios),
		Shards:     shards,
	}, nil
}

// Validate checks the manifest's structural invariants: schema version,
// sequential shard indices, and the exactly-once global index coverage
// Merge will later rely on.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("shard: manifest has version %d, want %d", m.Version, ManifestVersion)
	}
	seen := make(map[int]bool, m.Total)
	for i, s := range m.Shards {
		if s.Index != i {
			return fmt.Errorf("shard: manifest shard %d carries index %d", i, s.Index)
		}
		for _, it := range s.Items {
			if it.Index < 0 || it.Index >= m.Total {
				return fmt.Errorf("shard: scenario index %d outside batch of %d", it.Index, m.Total)
			}
			if seen[it.Index] {
				return fmt.Errorf("shard: scenario %d assigned to more than one shard", it.Index)
			}
			seen[it.Index] = true
		}
	}
	if len(seen) != m.Total {
		return fmt.Errorf("shard: manifest covers %d of %d scenarios", len(seen), m.Total)
	}
	return nil
}

// Scenarios flattens the plan back to the original batch in global index
// order — the inverse of Plan, used by coordinators that re-partition a
// submitted manifest against their own cost model.
func (m *Manifest) Scenarios() []core.Scenario {
	out := make([]core.Scenario, m.Total)
	for _, s := range m.Shards {
		for _, it := range s.Items {
			if it.Index >= 0 && it.Index < m.Total {
				out[it.Index] = it.Scenario()
			}
		}
	}
	return out
}
