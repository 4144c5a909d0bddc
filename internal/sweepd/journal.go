package sweepd

import (
	"bytes"
	"encoding/binary"
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
// <state-dir>/journal.wal before the in-memory state changes. An accepted
// result set travels inside its accept record, so the one fsync that
// journals the acceptance also makes the set durable, and replay never
// re-runs a finished scenario. On restart the coordinator replays the
// journal (recovery.go), truncating a torn tail record instead of refusing
// to start, and compacts it to per-sweep snapshot records.
// While running, it compacts again when a sweep completes and the bytes
// appended since the last compaction have reached that compaction's size,
// so the journal stays within twice its snapshot and each rewrite is paid
// for by as many appended bytes.

// journalVersion is the schema version of journal records; replay skips
// records from a different version rather than mis-reading them.
const journalVersion = 1

// Journal record kinds, mirroring the coordinator's state transitions.
const (
	// recSubmit: a sweep was admitted; carries the re-planned manifest.
	recSubmit = "submit"
	// recSnapshot: a compaction summary of one sweep — manifest, state,
	// counters, and accepted result sets.
	recSnapshot = "snapshot"
	// recLease: a partition was granted to a worker.
	recLease = "lease"
	// recRelease: a lease left the table (results, fail, expired).
	recRelease = "release"
	// recAccept: a result set was accepted; Set carries it. It carries no
	// Lease when the coordinator resolved the set from its cache at submit.
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
	// Sets are a sweep's accepted result sets (snapshot); Set is the one
	// an accept record accepts.
	Sets []*shard.ResultSet `json:"sets,omitempty"`
	Set  *shard.ResultSet   `json:"set,omitempty"`
	// Refs and Ref name result-set files under results/ instead: the form
	// journals took before sets were journaled inline. Replay still
	// resolves them, and the compaction after it rewrites them inline.
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
// holds result-set files (WriteResults, and the sets older journals
// reference).
const (
	journalFile = "journal.wal"
	resultsDir  = "results"
)

// Journal is the coordinator's durable log: fsync'd atomic appends of
// framed records. One coordinator owns one journal; methods are not safe
// for concurrent use (the coordinator serializes them under its own lock).
type Journal struct {
	dir  string
	path string
	f    *os.File
	seq  atomic.Uint64 // result-file uniquifier
	// buf holds the frames of the last Append, reused so a batch that
	// carries a result set is encoded without a fresh allocation.
	buf []byte
	// compacted is the size of the last compaction's snapshot, appended
	// the bytes appended since (compactionDue compares them).
	compacted, appended int
}

// OpenJournal opens (creating if needed) the journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweepd: journal directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: creating state directory: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepd: opening journal: %w", err)
	}
	return &Journal{dir: dir, path: path, f: f}, nil
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

// frameHeader is the room a frame reserves for its checksum and separator.
const frameHeader = len("01234567 ")

// appendFrames appends records to buf as consecutive lines, ready for one
// write. A line is 8 hex CRC32(payload) + space + payload + newline.
// encoding/json escapes raw newlines, so the newline terminates exactly
// one record and a torn write is detectable as a CRC mismatch or a missing
// terminator. Each payload is encoded straight into buf (json.Encoder ends
// it with the newline) and its checksum is then written into the room
// reserved before it, so a large record is not copied on its way in.
func appendFrames(buf []byte, recs ...record) ([]byte, error) {
	w := bytes.NewBuffer(buf)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		rec.V = journalVersion
		start := w.Len()
		w.WriteString("00000000 ")
		if err := enc.Encode(rec); err != nil {
			return nil, fmt.Errorf("sweepd: encoding journal record: %w", err)
		}
		frame := w.Bytes()[start:]
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(frame[frameHeader:len(frame)-1]))
		hex.Encode(frame, sum[:])
	}
	return w.Bytes(), nil
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

// Append durably appends records: their lines go to the O_APPEND file in
// one write syscall and are fsync'd once before returning, so an
// acknowledged transition survives a crash immediately after. A crash can
// still tear a batch between lines, and Load keeps the whole records
// before the tear, so callers order a batch so that each of its prefixes
// replays safely (a release before the accept it enables: losing the
// accept re-plans the lease's scenarios instead of counting them twice).
func (j *Journal) Append(recs ...record) error {
	buf, err := appendFrames(j.buf[:0], recs...)
	if err != nil {
		return err
	}
	j.buf = buf
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("sweepd: appending journal record: %w", err)
	}
	j.appended += len(buf)
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweepd: syncing journal: %w", err)
	}
	return nil
}

// compactionDue reports whether the bytes appended since the last Compact
// have reached the size of that compaction's snapshot. Compacting only
// then keeps the journal within twice its snapshot while rewriting it no
// more often than its appends pay for.
func (j *Journal) compactionDue() bool { return j.appended >= j.compacted }

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
	recs, valid := parseFrames(data)
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

// parseFrames decodes the whole, valid frames at the start of data. It
// returns the records written under journalVersion and the byte offset
// where the valid prefix ends: at the first unterminated, malformed or
// checksum-failing line.
func parseFrames(data []byte) (recs []record, valid int) {
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // unterminated tail: torn final write
		}
		rec, ok := parseFrame(data[valid : valid+nl])
		if !ok {
			break // checksum/format failure: torn or corrupt from here on
		}
		if rec.V == journalVersion {
			recs = append(recs, rec)
		}
		valid += nl + 1
	}
	return recs, valid
}

// Compact atomically replaces the journal's contents with buf, framed
// records (per-sweep snapshots plus still-outstanding leases): write to a
// temp file, fsync, rename over the WAL, reopen for appending. Called after
// recovery and, once compactionDue, when a sweep completes, so the
// journal's size tracks the sweep set instead of growing with history.
func (j *Journal) Compact(buf []byte) error {
	if err := writeAtomic(j.path, buf); err != nil {
		return fmt.Errorf("sweepd: compacting journal: %w", err)
	}
	// The old fd still points at the unlinked pre-compaction inode; reopen
	// so appends land in the compacted file.
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sweepd: reopening compacted journal: %w", err)
	}
	_ = j.f.Close()
	j.f = f
	j.compacted, j.appended = len(buf), 0
	return nil
}

// WriteResults durably persists a result set under results/, creating the
// directory on first use, and returns its reference (the file name, state-
// dir relative) for ReadResults. The write is atomic and durable (temp +
// fsync + rename + directory fsync), so a reference recorded after it
// always points at a complete file, across a power loss too. The
// coordinator journals accepted sets inline instead; this is the form
// journals written before that referenced.
func (j *Journal) WriteResults(sweepID string, rs *shard.ResultSet) (string, error) {
	dir := filepath.Join(j.dir, resultsDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sweepd: creating results directory: %w", err)
	}
	if j.seq.Load() == 0 {
		// Seed the uniquifier past the files already present, so a set is
		// never written over one an older journal references.
		if des, err := os.ReadDir(dir); err == nil {
			j.seq.Store(uint64(len(des)))
		}
	}
	name := fmt.Sprintf("%s-%06d.json", sweepID, j.seq.Add(1))
	data, err := json.Marshal(rs)
	if err != nil {
		return "", fmt.Errorf("sweepd: encoding result set: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, name), data); err != nil {
		return "", fmt.Errorf("sweepd: writing result set: %w", err)
	}
	return filepath.Join(resultsDir, name), nil
}

// writeAtomic durably replaces path with data: it writes a temp file,
// fsyncs it, renames it over path and fsyncs the directory, so a crash
// leaves the old file or the whole new one, and a rename the caller goes
// on to journal cannot be lost to a power failure.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
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
