package sweepd

import (
	"sort"

	"repro/internal/shard"
)

// Recover replays the write-ahead journal and marks the coordinator
// ready. Replay reconstructs every journaled sweep — manifests, accepted
// result sets (loaded by reference), coverage, terminal states, and the
// cumulative recovery counters — then expires every lease that was
// outstanding at the crash and re-plans exactly the uncovered scenario
// indices of each running sweep into a fresh queue (shard.Replan over
// Manifest.MissingFrom). Because scenario seeds derive from configuration
// content, the recovered sweep's merged output is byte-identical to an
// uninterrupted run, and no completed scenario is ever re-executed.
//
// A coordinator without a journal (NewCoordinator, or Open with an empty
// StateDir) just becomes ready. Recover is not idempotent; call it once,
// before serving.
func (c *Coordinator) Recover() error {
	if c.journal == nil {
		c.ready.Store(true)
		return nil
	}
	recs, err := c.journal.Load()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Outstanding leases in journal order: granted, not yet released.
	outstanding := make(map[string]record)
	var outstandingOrder []string
	haveRef := make(map[string]bool)

	for _, rec := range recs {
		switch rec.Kind {
		case recSubmit, recSnapshot:
			if rec.Sweep == "" || rec.Manifest == nil {
				continue
			}
			sw := &sweep{
				id:       rec.Sweep,
				manifest: rec.Manifest,
				state:    StateRunning,
				covered:  make(map[int]bool, rec.Manifest.Total),
			}
			if rec.Kind == recSnapshot {
				if rec.State != "" {
					sw.state = rec.State
				}
				sw.errMsg = rec.Error
				if rec.Counters != nil {
					sw.counters = *rec.Counters
				}
			}
			c.sweeps[sw.id] = sw
			c.order = append(c.order, sw.id)
			if n := idNumber(sw.id); n > c.nextSweep {
				c.nextSweep = n
			}
			for _, ref := range rec.Refs {
				c.loadResultsLocked(sw, ref, haveRef)
			}
		case recLease:
			sw := c.sweeps[rec.Sweep]
			if sw == nil || rec.Lease == "" {
				continue
			}
			outstanding[rec.Lease] = rec
			outstandingOrder = append(outstandingOrder, rec.Lease)
			if n := idNumber(rec.Lease); n > c.nextLease {
				c.nextLease = n
			}
		case recRelease:
			sw := c.sweeps[rec.Sweep]
			if sw == nil {
				continue
			}
			delete(outstanding, rec.Lease)
			if rec.Reason == releaseExpired {
				sw.counters.Expired++
			}
		case recAccept:
			sw := c.sweeps[rec.Sweep]
			if sw == nil {
				continue
			}
			c.loadResultsLocked(sw, rec.Ref, haveRef)
		case recRequeue:
			sw := c.sweeps[rec.Sweep]
			if sw == nil {
				continue
			}
			sw.counters.Requeues++
			if rec.Reason == requeueGap || rec.Reason == requeueMerge {
				sw.counters.Replans++
			}
		case recState:
			sw := c.sweeps[rec.Sweep]
			if sw == nil {
				continue
			}
			sw.state = rec.State
			sw.errMsg = rec.Error
		case recShutdown:
			// Clean-exit marker: nothing to reconstruct — any leases still
			// outstanding were knowingly abandoned and expire below.
		}
	}

	// Every lease outstanding at the crash is dead: its worker is gone (or
	// will find its lease unknown). Expire them on the record so the
	// counters stay cumulative across the next restart too.
	for _, id := range outstandingOrder {
		rec, ok := outstanding[id]
		if !ok {
			continue
		}
		sw := c.sweeps[rec.Sweep]
		if sw == nil {
			continue
		}
		c.appendBestEffortLocked(record{Kind: recRelease, Sweep: sw.id, Lease: id, Reason: releaseExpired})
		sw.counters.Expired++
		c.logf("recover: lease %s (worker %q, sweep %s) did not survive the restart", id, rec.Worker, sw.id)
	}

	// Rebuild each running sweep's queue from exactly what coverage is
	// missing; a fully covered sweep merges immediately.
	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.state != StateRunning {
			if sw.state == StateDone && sw.merged == nil {
				if results, err := shard.Merge(sw.manifest, sw.sets); err == nil {
					sw.merged = results
				} else {
					// The journal said done but the referenced sets no longer
					// merge (lost result files): rerun the gap instead of
					// serving nothing.
					sw.state = StateRunning
					sw.errMsg = ""
				}
			}
			if sw.state != StateRunning {
				continue
			}
		}
		missing := sw.manifest.MissingFrom(sw.covered)
		if len(missing) == 0 {
			c.maybeFinishLocked(sw)
			continue
		}
		parts := len(sw.manifest.Shards)
		if parts > len(missing) {
			parts = len(missing)
		}
		shards, err := shard.Replan(sw.manifest, missing, parts)
		if err != nil {
			c.failSweepLocked(sw, err.Error())
			continue
		}
		for _, s := range shards {
			if len(s.Items) == 0 {
				continue
			}
			c.appendBestEffortLocked(record{Kind: recRequeue, Sweep: sw.id, Reason: requeueRecovered})
			sw.counters.Requeues++
			sw.queue = append(sw.queue, pending{shard: s})
		}
		c.logf("recover: sweep %s resumes with %d/%d scenarios to run in %d partitions",
			sw.id, len(missing), sw.manifest.Total, len(sw.queue))
	}

	// Compact so the next restart replays snapshots instead of history.
	c.compactLocked()
	c.ready.Store(true)
	c.logf("recover: %d sweeps restored from %s", len(c.order), c.journal.Dir())
	return nil
}

// loadResultsLocked folds one referenced result set into a sweep,
// skipping references already loaded (a duplicate accept record replays
// idempotently) and references whose file is missing or corrupt (those
// scenarios simply count as uncovered and are re-planned).
func (c *Coordinator) loadResultsLocked(sw *sweep, ref string, haveRef map[string]bool) {
	if ref == "" || haveRef[ref] {
		return
	}
	haveRef[ref] = true
	rs, err := c.journal.ReadResults(ref)
	if err != nil {
		c.logf("recover: dropping result set %s: %v", ref, err)
		return
	}
	sw.sets = append(sw.sets, rs)
	sw.refs = append(sw.refs, ref)
	for _, item := range rs.Results {
		if item.Index >= 0 && item.Index < sw.manifest.Total {
			sw.covered[item.Index] = true
		}
	}
}

// compactLocked rewrites the journal as one snapshot record per sweep (in
// submission order, carrying manifest, state, counters, and result
// references) plus one lease record per still-active lease — the minimal
// prefix a future Recover needs. Runs whenever a sweep completes and once
// after recovery; a compaction error leaves the previous journal intact.
func (c *Coordinator) compactLocked() {
	if c.journal == nil {
		return
	}
	recs := make([]record, 0, len(c.order)+len(c.leases))
	for _, id := range c.order {
		sw := c.sweeps[id]
		ctrs := sw.counters
		recs = append(recs, record{
			Kind:     recSnapshot,
			Sweep:    sw.id,
			Manifest: sw.manifest,
			State:    sw.state,
			Error:    sw.errMsg,
			Refs:     append([]string(nil), sw.refs...),
			Counters: &ctrs,
		})
	}
	ids := make([]string, 0, len(c.leases))
	for id := range c.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		l := c.leases[id]
		recs = append(recs, record{
			Kind: recLease, Sweep: l.sweepID, Lease: id, Worker: l.worker,
			ShardIndex: l.part.shard.Index,
		})
	}
	if err := c.journal.Compact(recs); err != nil {
		c.logf("journal: compaction failed: %v", err)
	}
}
