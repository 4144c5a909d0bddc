package sweepd

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/shard"
)

// The write-ahead journal makes the coordinator's sweep state durable:
// every state transition appends one framed, checksummed record to
// <state-dir>/journal.wal before the in-memory state changes, and accepted
// result sets are persisted as separate files under <state-dir>/results/
// with the journal holding only a reference — so the journal stays small
// and replay never re-runs a finished scenario. On restart the coordinator
// replays the journal (recovery.go), truncating a torn tail record instead
// of refusing to start, and compacts the journal to per-sweep snapshot
// records whenever a sweep completes.

// journalVersion is the schema version of journal records; replay skips
// records from a different version rather than mis-reading them.
const journalVersion = 1

// Journal record kinds, mirroring the coordinator's state transitions.
const (
	// recSubmit: a sweep was admitted; carries the re-planned manifest.
	recSubmit = "submit"
	// recSnapshot: a compaction summary of one sweep — manifest, state,
	// counters, and accepted-result references.
	recSnapshot = "snapshot"
	// recLease: a partition was granted to a worker.
	recLease = "lease"
	// recRelease: a lease left the table (results, fail, expired).
	recRelease = "release"
	// recAccept: a result set was accepted; Ref names its file under
	// results/.
	recAccept = "accept"
	// recRequeue: a partition re-entered the queue (counter semantics).
	recRequeue = "requeue"
	// recState: a sweep reached a terminal state (done/failed).
	recState = "state"
	// recShutdown: the coordinator drained and exited cleanly.
	recShutdown = "shutdown"
)

// Lease-release reasons (recRelease.Reason).
const (
	releaseResults = "results"
	releaseFail    = "fail"
	releaseExpired = "expired"
)

// sweepCounters are the per-sweep recovery counters persisted across
// restarts (satisfying cumulative Status reporting).
type sweepCounters struct {
	// Expired counts leases reclaimed after a missed deadline — including
	// leases outstanding at a crash, which replay expires wholesale.
	Expired int `json:"expired,omitempty"`
	// Requeues counts partitions that re-entered the queue for any reason.
	Requeues int `json:"requeues,omitempty"`
	// Replans counts recovery partitions built from merge gaps.
	Replans int `json:"replans,omitempty"`
}

// record is one journal entry. Kind decides which fields are meaningful;
// unused fields stay at their zero values and are omitted from the wire.
type record struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// Sweep identifies the sweep the record belongs to (all kinds but
	// shutdown).
	Sweep string `json:"sweep,omitempty"`
	// Manifest is the coordinator's re-planned partition (submit, snapshot).
	Manifest *shard.Manifest `json:"manifest,omitempty"`
	// State and Error carry terminal sweep state (state, snapshot).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Refs lists accepted result files (snapshot); Ref names one (accept).
	Refs []string `json:"refs,omitempty"`
	Ref  string   `json:"ref,omitempty"`
	// Counters snapshots the sweep's recovery counters (snapshot).
	Counters *sweepCounters `json:"counters,omitempty"`
	// Lease/Worker/Shard describe a lease (lease, release, accept).
	Lease      string `json:"lease,omitempty"`
	Worker     string `json:"worker,omitempty"`
	ShardIndex int    `json:"shard,omitempty"`
	// Reason qualifies a release or requeue.
	Reason string `json:"reason,omitempty"`
}

// journalFile is the WAL's name inside the state directory; resultsDir
// holds the referenced result sets.
const (
	journalFile = "journal.wal"
	resultsDir  = "results"
)

// Journal is the coordinator's durable log: fsync'd atomic appends of
// framed records plus a directory of referenced result-set files. One
// coordinator owns one journal; methods are not safe for concurrent use
// (the coordinator serializes them under its own lock).
type Journal struct {
	dir  string
	path string
	f    *os.File
	seq  atomic.Uint64 // result-file uniquifier
}

// OpenJournal opens (creating if needed) the journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweepd: journal directory must not be empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, resultsDir), 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: creating state directory: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepd: opening journal: %w", err)
	}
	j := &Journal{dir: dir, path: path, f: f}
	// Seed the result-file uniquifier past any files already present so a
	// recovered coordinator never overwrites a referenced set.
	if des, err := os.ReadDir(filepath.Join(dir, resultsDir)); err == nil {
		j.seq.Store(uint64(len(des)))
	}
	return j, nil
}

// Dir returns the journal's state directory.
func (j *Journal) Dir() string { return j.dir }

// Close closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// frame renders one record line: 8 hex CRC32(payload) + space + payload +
// newline. encoding/json escapes raw newlines, so the newline terminates
// exactly one record and a torn write is detectable as a CRC mismatch or a
// missing terminator.
func frame(rec record) ([]byte, error) {
	rec.V = journalVersion
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("sweepd: encoding journal record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	var crc [4]byte
	sum := crc32.ChecksumIEEE(payload)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	line = append(line, []byte(hex.EncodeToString(crc[:]))...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseFrame decodes one framed line (without its newline). ok is false
// for any malformed or checksum-failing line.
func parseFrame(line []byte) (record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return record{}, false
	}
	crcBytes, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return record{}, false
	}
	payload := line[9:]
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	if crc32.ChecksumIEEE(payload) != want {
		return record{}, false
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, false
	}
	return rec, true
}

// Append durably appends one record: the line is written in a single
// write syscall to the O_APPEND file and fsync'd before returning, so an
// acknowledged transition survives a crash immediately after.
func (j *Journal) Append(rec record) error {
	line, err := frame(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sweepd: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweepd: syncing journal: %w", err)
	}
	return nil
}

// Load reads every valid record from the journal. A torn or corrupt tail —
// a record interrupted mid-write by a crash — is truncated away so the
// journal is immediately appendable again; everything before it replays.
// Records written under a foreign journalVersion are skipped, not
// misread.
func (j *Journal) Load() ([]record, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("sweepd: reading journal: %w", err)
	}
	var recs []record
	valid := 0 // byte offset of the end of the last valid record
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: torn final write
		}
		rec, ok := parseFrame(data[off : off+nl])
		if !ok {
			break // checksum/format failure: torn or corrupt from here on
		}
		if rec.V == journalVersion {
			recs = append(recs, rec)
		}
		off += nl + 1
		valid = off
	}
	if valid < len(data) {
		if err := j.f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("sweepd: truncating torn journal tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("sweepd: syncing truncated journal: %w", err)
		}
	}
	return recs, nil
}

// Compact atomically replaces the journal's contents with the given
// records (per-sweep snapshots plus still-outstanding leases): write to a
// temp file, fsync, rename over the WAL, reopen for appending. Called
// whenever a sweep completes, so the journal's size tracks the live sweep
// set instead of growing with history.
func (j *Journal) Compact(recs []record) error {
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sweepd: creating compaction file: %w", err)
	}
	for _, rec := range recs {
		line, err := frame(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("sweepd: writing compaction file: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sweepd: syncing compaction file: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweepd: closing compaction file: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweepd: committing compaction: %w", err)
	}
	// The old fd still points at the unlinked pre-compaction inode; reopen
	// so appends land in the compacted file.
	old := j.f
	f, err = os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweepd: reopening compacted journal: %w", err)
	}
	j.f = f
	_ = old.Close()
	return syncDir(j.dir)
}

// WriteResults durably persists an accepted result set under results/ and
// returns the reference to journal (the file name, state-dir relative).
// The write is atomic (temp + fsync + rename), so a reference that made it
// into the journal always points at a complete file.
func (j *Journal) WriteResults(sweepID string, rs *shard.ResultSet) (string, error) {
	name := fmt.Sprintf("%s-%06d.json", sweepID, j.seq.Add(1))
	path := filepath.Join(j.dir, resultsDir, name)
	data, err := json.Marshal(rs)
	if err != nil {
		return "", fmt.Errorf("sweepd: encoding result set: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("sweepd: creating result file: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("sweepd: writing result file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("sweepd: syncing result file: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("sweepd: closing result file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("sweepd: committing result file: %w", err)
	}
	return filepath.Join(resultsDir, name), nil
}

// ReadResults loads a referenced result set. The reference is confined to
// the results directory (journal references are names, not paths).
func (j *Journal) ReadResults(ref string) (*shard.ResultSet, error) {
	path := filepath.Join(j.dir, resultsDir, filepath.Base(ref))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweepd: reading result set %s: %w", ref, err)
	}
	var rs shard.ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("sweepd: corrupt result set %s: %w", ref, err)
	}
	if rs.Version != shard.ResultSetVersion {
		return nil, fmt.Errorf("sweepd: result set %s has version %d, want %d", ref, rs.Version, shard.ResultSetVersion)
	}
	return &rs, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort: some platforms refuse directory opens
	}
	defer d.Close()
	return d.Sync()
}

// idNumber parses the numeric suffix of a coordinator id ("s12" -> 12, 0
// when unparseable), used by replay to resume the id counters past every
// journaled id.
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimLeft(id, "sl"))
	if err != nil {
		return 0
	}
	return n
}
