package sweepd

import (
	"bytes"
	"maps"
	"slices"

	"repro/internal/shard"
)

// Recover replays the write-ahead journal and marks the coordinator
// ready. Replay reconstructs every journaled sweep — manifests, accepted
// result sets (inline, or by reference from an older journal), coverage,
// terminal states, and the cumulative recovery counters — then expires
// every lease that was outstanding at the crash and re-plans exactly the
// uncovered scenario indices of each running sweep into a fresh queue
// (shard.Replan over Manifest.MissingFrom). Because scenario seeds derive
// from configuration content, the recovered sweep's merged output is
// byte-identical to an uninterrupted run, and no completed scenario is
// ever re-executed. Unlike Submit, replay never consults the result cache:
// scenarios resolved at submit come back from their journaled accept, and
// missing ones are re-planned, not looked up.
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
	// Accept records already folded, by sweep and lease: a lease is
	// accepted once and a sweep resolves at submit once, so a duplicated
	// record (a crash between append and apply, then a retried submission)
	// folds its set once.
	accepted := make(map[[2]string]bool)

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
			for _, rs := range rec.Sets {
				sw.accept(rs)
			}
			for _, ref := range rec.Refs {
				c.loadResultsLocked(sw, ref)
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
			if sw == nil || accepted[[2]string{sw.id, rec.Lease}] {
				continue
			}
			accepted[[2]string{sw.id, rec.Lease}] = true
			if rec.Set != nil {
				sw.accept(rec.Set)
			} else {
				c.loadResultsLocked(sw, rec.Ref)
			}
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
					// The journal said done but its sets no longer merge
					// (result files an older journal referenced are lost):
					// rerun the gap instead of serving nothing.
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

	// Compact so the next restart replays snapshots instead of history,
	// with every set inline. An empty journal has nothing to compact.
	if len(recs) > 0 {
		c.compactLocked(true)
	}
	c.ready.Store(true)
	c.logf("recover: %d sweeps restored from %s", len(c.order), c.journal.Dir())
	return nil
}

// loadResultsLocked folds one result set an older journal referenced into
// a sweep, skipping a reference whose file is missing or corrupt (those
// scenarios simply count as uncovered and are re-planned).
func (c *Coordinator) loadResultsLocked(sw *sweep, ref string) {
	if ref == "" {
		return
	}
	rs, err := c.journal.ReadResults(ref)
	if err != nil {
		c.logf("recover: dropping result set %s: %v", ref, err)
		return
	}
	sw.accept(rs)
}

// compactLocked rewrites the journal as one snapshot record per sweep (in
// submission order, carrying manifest, state, counters, and accepted
// result sets) plus one lease record per still-active lease — the minimal
// prefix a future Recover needs. Recovery forces it; a completing sweep
// runs it only when the journal says a compaction is due. A done sweep
// never changes again, so its framed snapshot is encoded once and copied
// by every later compaction. A compaction error leaves the previous
// journal intact.
func (c *Coordinator) compactLocked(force bool) {
	if c.journal == nil || !(force || c.journal.compactionDue()) {
		return
	}
	buf, err := c.compactionLocked()
	if err == nil {
		err = c.journal.Compact(buf)
	}
	if err != nil {
		c.logf("journal: compaction failed: %v", err)
	}
}

// compactionLocked renders the compacted journal: compactLocked's records,
// framed, with done sweeps' snapshots copied from their first encoding.
func (c *Coordinator) compactionLocked() ([]byte, error) {
	buf := make([]byte, 0, c.journal.compacted+c.journal.appended)
	var err error
	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.snapshot != nil {
			buf = append(buf, sw.snapshot...)
			continue
		}
		start := len(buf)
		if buf, err = appendFrames(buf, snapshotRecord(sw)); err != nil {
			return nil, err
		}
		if sw.state == StateDone {
			sw.snapshot = bytes.Clone(buf[start:])
		}
	}
	leases := make([]record, 0, len(c.leases))
	for _, id := range slices.Sorted(maps.Keys(c.leases)) {
		l := c.leases[id]
		leases = append(leases, record{Kind: recLease, Sweep: l.sweepID, Lease: id, Worker: l.worker, ShardIndex: l.part.shard.Index})
	}
	return appendFrames(buf, leases...)
}

// snapshotRecord is a sweep's compaction summary.
func snapshotRecord(sw *sweep) record {
	return record{
		Kind:     recSnapshot,
		Sweep:    sw.id,
		Manifest: sw.manifest,
		State:    sw.state,
		Error:    sw.errMsg,
		Sets:     sw.sets,
		Counters: &sw.counters,
	}
}
