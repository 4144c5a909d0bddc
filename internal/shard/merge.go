package shard

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
)

// RunShard evaluates one shard's scenarios with the given Runner and
// returns the worker's ResultSet, with every result re-tagged to its
// global batch index. Any scenario failure fails the whole shard: merge
// needs complete shards.
func RunShard(ctx context.Context, r *core.Runner, s Shard) (*ResultSet, error) {
	scenarios := make([]core.Scenario, len(s.Items))
	for i, it := range s.Items {
		scenarios[i] = it.Scenario()
	}
	results, err := r.RunAll(ctx, scenarios)
	if err != nil {
		return nil, fmt.Errorf("shard: running shard %d: %w", s.Index, err)
	}
	for i := range results {
		results[i].Index = s.Items[i].Index
	}
	return NewResultSet(s.Index, results)
}

// ResultSetVersion is the schema version of the worker result JSON.
const ResultSetVersion = 1

// ResultItem is one completed scenario as serialized by a worker.
// Estimates are stored by value; encoding/json round-trips every float64
// exactly (shortest-representation encoding), which is what keeps a
// merged sweep bit-identical to a single-process one.
type ResultItem struct {
	// Index is the scenario's global position in the batch.
	Index int `json:"index"`
	// Name echoes the scenario name.
	Name string `json:"name,omitempty"`
	// Config echoes the scenario configuration, so merged Results carry
	// the full Scenario the core.Result contract documents.
	Config core.Config `json:"config"`
	// Seed is the effective seed the scenario ran with.
	Seed uint64 `json:"seed"`
	// Estimates holds one result per estimator, in the spec's method
	// order.
	Estimates []core.Estimate `json:"estimates"`
}

// Result converts the item back to the core.Result a Runner produced,
// with its own copy of the estimates.
func (it ResultItem) Result() core.Result {
	vals := slices.Clone(it.Estimates)
	ests := make([]*core.Estimate, len(vals))
	for j := range vals {
		ests[j] = &vals[j]
	}
	return core.Result{
		Index:     it.Index,
		Scenario:  core.Scenario{Name: it.Name, Config: it.Config},
		Seed:      it.Seed,
		Estimates: ests,
	}
}

// ResultSet is the JSON document one worker reports after finishing its
// shard.
type ResultSet struct {
	// Version is ResultSetVersion at write time.
	Version int `json:"version"`
	// ShardIndex identifies which shard of the plan produced this set, or
	// is ResolvedShardIndex for a set no shard produced.
	ShardIndex int `json:"shard_index"`
	// Results lists the shard's completed scenarios.
	Results []ResultItem `json:"results"`
}

// ResolvedShardIndex is the ShardIndex of a result set resolved by the
// coordinator: the scenarios a sweep coordinator answered from its own
// result cache at submit, without leasing them to any shard.
const ResolvedShardIndex = -1

// NewResultSet converts a completed shard's Runner results into the wire
// shape. Every result must be a success: a failed scenario has no
// estimates to merge, so the worker must fail instead of writing a
// partial set.
func NewResultSet(shardIndex int, results []core.Result) (*ResultSet, error) {
	rs := &ResultSet{Version: ResultSetVersion, ShardIndex: shardIndex}
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("shard: scenario %d failed, refusing to serialize a partial shard: %w", res.Index, res.Err)
		}
		ests := make([]core.Estimate, len(res.Estimates))
		for i, e := range res.Estimates {
			ests[i] = *e
		}
		rs.Results = append(rs.Results, ResultItem{
			Index:     res.Index,
			Name:      res.Scenario.Name,
			Config:    res.Scenario.Config,
			Seed:      res.Seed,
			Estimates: ests,
		})
	}
	return rs, nil
}

// Merge reassembles worker result sets into the plan's results in input
// order. It detects the ways a sharded run can lie: a scenario reported
// by no shard (incomplete), a scenario reported by two shards with
// differing content (conflict — with content-derived seeding a duplicated
// scenario must be bit-identical, so a mismatch means the workers ran
// different code or different plans; identical duplicates are tolerated),
// an index outside the batch, and a result whose scenario does not match
// what the plan assigned to that index (a stale or foreign result set
// from a different plan must not merge silently into a wrong artifact).
func Merge(m *Manifest, sets []*ResultSet) ([]core.Result, error) {
	total := m.Total
	planned := make(map[int]Item, total)
	for _, s := range m.Shards {
		for _, it := range s.Items {
			planned[it.Index] = it
		}
	}
	byIndex := make(map[int]ResultItem, total)
	owner := make(map[int]int, total) // scenario index -> shard that reported it
	for _, rs := range sets {
		for _, item := range rs.Results {
			if item.Index < 0 || item.Index >= total {
				return nil, fmt.Errorf("shard: shard %d reports scenario %d outside batch of %d", rs.ShardIndex, item.Index, total)
			}
			if want, ok := planned[item.Index]; ok && (item.Name != want.Name || item.Config != want.Config) {
				return nil, fmt.Errorf("shard: shard %d reports a different scenario %d than the plan assigned (stale result set from another plan?)",
					rs.ShardIndex, item.Index)
			}
			if prev, dup := byIndex[item.Index]; dup {
				if !resultItemsEqual(prev, item) {
					return nil, fmt.Errorf("shard: conflicting results for scenario %d from shards %d and %d",
						item.Index, owner[item.Index], rs.ShardIndex)
				}
				continue
			}
			byIndex[item.Index] = item
			owner[item.Index] = rs.ShardIndex
		}
	}
	if len(byIndex) != total {
		missing := make([]int, 0, total-len(byIndex))
		for i := 0; i < total; i++ {
			if _, ok := byIndex[i]; !ok {
				missing = append(missing, i)
			}
		}
		return nil, &IncompleteError{Total: total, Missing: missing}
	}
	// Placement into out is positional and coverage of 0..total-1 was
	// just verified, so plain map iteration order suffices.
	out := make([]core.Result, total)
	for i, item := range byIndex {
		out[i] = item.Result()
	}
	return out, nil
}

// IncompleteError is the gap report Merge returns when the result sets do
// not cover the plan: exactly which global scenario indices no shard
// reported. A coordinator recovering from a worker crash feeds Missing
// straight into Replan; because re-planning only ever covers these indices,
// completed scenarios are never re-run and the recovered merge is
// byte-identical to an uninterrupted one.
type IncompleteError struct {
	// Total is the plan's scenario count.
	Total int
	// Missing lists the unreported global indices in increasing order.
	Missing []int
}

// Error implements error. The message shows at most 8 indices so a huge
// gap does not flood logs; the full list is in Missing.
func (e *IncompleteError) Error() string {
	shown := e.Missing
	suffix := ""
	if len(shown) > 8 {
		shown, suffix = shown[:8], "..."
	}
	return fmt.Sprintf("shard: merge incomplete: %d of %d scenarios reported (missing %v%s)",
		e.Total-len(e.Missing), e.Total, shown, suffix)
}

// MissingFrom returns the sorted global indices of the plan that the
// covered set does not contain — the exact re-run set for a coordinator
// that tracks coverage incrementally (or reconstructs it from a journal
// after a restart) instead of holding worker result sets. Feed the result
// to Replan to rebuild the work queue from recovered state.
func (m *Manifest) MissingFrom(covered map[int]bool) []int {
	missing := make([]int, 0, m.Total-len(covered))
	for i := 0; i < m.Total; i++ {
		if !covered[i] {
			missing = append(missing, i)
		}
	}
	return missing
}

// Replan partitions exactly the given missing scenario indices of a plan
// into up to n fresh shards (indexed 0..n-1 within the returned slice) —
// the crash-recovery step: a lease that expired or a merge that reported
// gaps re-enters the queue as these shards. Items are copied verbatim from
// the manifest, so the re-run scenarios carry identical configurations
// and, with content-derived seeding, produce results byte-identical to
// what the lost worker would have reported. Indices outside the plan or
// not assigned by it are rejected; duplicates collapse.
func Replan(m *Manifest, missing []int, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: replan needs at least 1 shard, got %d", n)
	}
	planned := make(map[int]Item, m.Total)
	for _, s := range m.Shards {
		for _, it := range s.Items {
			planned[it.Index] = it
		}
	}
	seen := make(map[int]bool, len(missing))
	scenarios := make([]core.Scenario, 0, len(missing))
	order := make([]Item, 0, len(missing))
	for _, idx := range missing {
		if idx < 0 || idx >= m.Total {
			return nil, fmt.Errorf("shard: replan index %d outside batch of %d", idx, m.Total)
		}
		it, ok := planned[idx]
		if !ok {
			return nil, fmt.Errorf("shard: replan index %d is not assigned by the plan", idx)
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		order = append(order, it)
		scenarios = append(scenarios, it.Scenario())
	}
	shards, err := Plan(scenarios, n)
	if err != nil {
		return nil, err
	}
	// Plan tagged items with positions inside the missing list; restore the
	// global batch indices from the manifest's items.
	for si := range shards {
		for ii := range shards[si].Items {
			shards[si].Items[ii] = order[shards[si].Items[ii].Index]
		}
	}
	return shards, nil
}

// resultItemsEqual compares two reports of the same scenario field by
// field. Estimate and Config are flat value structs, so == is exact.
func resultItemsEqual(a, b ResultItem) bool {
	if a.Index != b.Index || a.Name != b.Name || a.Config != b.Config ||
		a.Seed != b.Seed || len(a.Estimates) != len(b.Estimates) {
		return false
	}
	for i := range a.Estimates {
		if a.Estimates[i] != b.Estimates[i] {
			return false
		}
	}
	return true
}
