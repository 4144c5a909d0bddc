// Package sweepd serves parameter sweeps as a long-running distributed
// service: an HTTP coordinator accepts sweep requests (a shard.Manifest —
// experiment, grid, and Runner parameterization), partitions them with
// cost-weighted planning fed by the workers' own EWMA cost models, leases
// partitions to workers over a small JSON/HTTP protocol with per-lease
// deadlines and heartbeats, and streams shard results back as they
// complete.
//
// Crash recovery is structural, not hopeful: a worker that stops
// heartbeating loses its lease and the partition re-enters the queue; a
// result set that covers only part of its partition has the remainder
// re-planned from the merge gap (shard.Replan) — and because every
// scenario's seed is derived from its configuration content, the recovered
// sweep is byte-identical to an uninterrupted single-process run. The
// coordinator also hosts a remote result cache (core.CacheHandler), so a
// fleet without a shared filesystem still simulates each grid point once.
package sweepd

import (
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// ProtocolVersion is the wire version of the coordinator/worker protocol;
// both sides reject foreign versions rather than mis-decode them.
const ProtocolVersion = 1

// CachePath is the coordinator's remote result-cache mount point; workers
// join it to the coordinator base URL.
const CachePath = "/v1/cache"

// HealthPath answers 200 whenever the process serves HTTP; ReadyPath
// answers 200 only once journal replay has finished and the coordinator
// is leasing work (503 while recovering).
const (
	HealthPath = "/v1/healthz"
	ReadyPath  = "/v1/readyz"
)

// SubmitRequest asks the coordinator to run a sweep. The manifest's
// partition (Shards) is advisory only: the coordinator flattens it back to
// the scenario batch and re-plans against its own cost model and partition
// count — placement never changes results, so re-planning is always safe.
type SubmitRequest struct {
	Version int `json:"version"`
	// Manifest carries the experiment name, Runner spec, grid, and any
	// renderer context in Extra.
	Manifest *shard.Manifest `json:"manifest"`
	// Partitions overrides the coordinator's default lease-partition count
	// for this sweep (0 = default). More partitions mean finer-grained
	// recovery at more protocol round trips.
	Partitions int `json:"partitions,omitempty"`
}

// SubmitResponse returns the sweep's coordinator-assigned id.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Sweep states reported by status endpoints.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// LeaseInfo describes one active lease for observability (and for the
// fault-injection tests, which pick their victim by it).
type LeaseInfo struct {
	ID      string `json:"id"`
	SweepID string `json:"sweep_id"`
	Worker  string `json:"worker"`
	// Scenarios is the partition's scenario count.
	Scenarios int `json:"scenarios"`
	// StartedAt is when the lease was granted; Deadline is when it expires
	// unless a heartbeat extends it.
	StartedAt time.Time `json:"started_at"`
	Deadline  time.Time `json:"deadline"`
}

// SweepStatus is the public state of one sweep.
type SweepStatus struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment,omitempty"`
	State      string `json:"state"`
	// Total and Completed count scenarios (not partitions): Completed is
	// how many grid points have results in.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Queued and Leased count partitions awaiting and holding workers.
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	// Error is set when State is StateFailed.
	Error string `json:"error,omitempty"`
	// Recovery counters, cumulative across coordinator restarts (the
	// journal persists them): leases expired, partitions requeued, and
	// recovery partitions re-planned from merge gaps for this sweep.
	Expired  int `json:"expired,omitempty"`
	Requeues int `json:"requeues,omitempty"`
	Replans  int `json:"replans,omitempty"`
}

// CoordinatorStatus is the service-wide view: every sweep plus the fleet
// counters the fault-injection gate asserts on.
type CoordinatorStatus struct {
	Version int           `json:"version"`
	Sweeps  []SweepStatus `json:"sweeps"`
	Leases  []LeaseInfo   `json:"leases"`
	// ExpiredLeases counts leases reclaimed because their worker stopped
	// heartbeating; Requeues counts partitions that re-entered the queue
	// for any reason (expiry, explicit failure, partial results).
	ExpiredLeases int `json:"expired_leases"`
	Requeues      int `json:"requeues"`
	// Replans counts recovery partitions created from merge gaps (partial
	// result sets), as opposed to whole partitions requeued on expiry.
	Replans int `json:"replans"`
	// Ready is false while the coordinator replays its journal; Draining
	// is true once a graceful shutdown has begun.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
}

// LeaseRequest is a worker's poll for work.
type LeaseRequest struct {
	Version int `json:"version"`
	// Worker identifies the polling worker in status output and logs.
	Worker string `json:"worker"`
}

// Lease poll outcomes.
const (
	// LeaseWork: the response carries a lease.
	LeaseWork = "work"
	// LeaseWait: no work right now; poll again (with backoff).
	LeaseWait = "wait"
	// LeaseBye: the coordinator is draining; the worker should exit.
	LeaseBye = "bye"
)

// LeaseResponse answers a poll. When Status is LeaseWork, the worker runs
// Shard under Runner's parameterization, heartbeats at least once per
// TTL/3, and submits a ResultSubmission before the (extended) deadline.
type LeaseResponse struct {
	Version int               `json:"version"`
	Status  string            `json:"status"`
	LeaseID string            `json:"lease_id,omitempty"`
	SweepID string            `json:"sweep_id,omitempty"`
	Runner  *shard.RunnerSpec `json:"runner,omitempty"`
	Shard   *shard.Shard      `json:"shard,omitempty"`
	// TTLSeconds is the lease's heartbeat deadline window.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// CachePath is the coordinator-relative mount of the shared result
	// cache ("" when the coordinator hosts none).
	CachePath string `json:"cache_path,omitempty"`
}

// ResultSubmission is a worker's report for one lease: the partition's
// result set (possibly partial after a mid-run failure) plus the worker's
// trained cost table, which the coordinator folds into its planning model.
type ResultSubmission struct {
	Version int              `json:"version"`
	Results *shard.ResultSet `json:"results"`
	Costs   core.CostTable   `json:"costs,omitempty"`
}

// FailRequest reports that a worker could not run its lease. The partition
// re-enters the queue (bounded by the coordinator's attempt cap).
type FailRequest struct {
	Version int    `json:"version"`
	Error   string `json:"error"`
}

// ResultsResponse streams a sweep's completed scenarios. Complete reports
// whether the sweep has merged; until then Results holds the scenarios
// finished so far (in global index order), so pollers render progress
// incrementally.
type ResultsResponse struct {
	Version  int                `json:"version"`
	State    string             `json:"state"`
	Error    string             `json:"error,omitempty"`
	Complete bool               `json:"complete"`
	Results  []shard.ResultItem `json:"results"`
}

// errorResponse is the JSON body of non-2xx API answers.
type errorResponse struct {
	Error string `json:"error"`
}
