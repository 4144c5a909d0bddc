package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// FileBackend is a CacheBackend over a directory of one-file-per-entry
// JSON records, shareable by concurrent processes: workers of one sweep
// (`wsnenergy work -local-cache`) can point at one cache directory, and
// each grid point is simulated by whichever worker reaches it first. It
// also backs the coordinator's shared cache under `wsnenergy serve -cache`
// and `serve -state-dir`.
//
// Entries are written atomically (temp file + rename on the same
// filesystem), so readers never observe a partial record; concurrent
// writers of the same key race benignly because equal keys always carry
// equal estimates. Each record embeds its full canonical key, and Get
// verifies it against the requested key, so a hash collision or a stale
// schema version degrades to a miss rather than a wrong result.
type FileBackend struct {
	dir  string
	hits atomic.Uint64
}

// fileTempSeq uniquifies temp-file names within this process. It is shared
// by every FileBackend, because two backends on one directory would
// otherwise pick the same name for the same key and write.
var fileTempSeq atomic.Uint64

// fileEntryVersion versions the on-disk record envelope (independent of
// CacheKeyVersion, which versions the key inside it).
const fileEntryVersion = 1

// fileEntry is the on-disk record: the canonical key encoding it was
// stored under, plus the estimate.
type fileEntry struct {
	Version  int             `json:"version"`
	Key      json.RawMessage `json:"key"`
	Estimate Estimate        `json:"estimate"`
}

// cacheFileSuffix names the committed entry files; in-flight writes carry
// an extra ".tmp.*" suffix so a directory scan over *.cache.json never
// sees one.
const cacheFileSuffix = ".cache.json"

// NewFileBackend opens (creating if needed) a file-backed result cache
// rooted at dir.
func NewFileBackend(dir string) (*FileBackend, error) {
	if dir == "" {
		return nil, errors.New("core: file cache directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating cache directory: %w", err)
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the backend's root directory.
func (b *FileBackend) Dir() string { return b.dir }

// encodeAndPath canonically encodes the key once and derives its entry
// file from the digest of those same bytes (both Get and Put need the
// encoding *and* the path, so the key is marshaled exactly once per
// operation).
func (b *FileBackend) encodeAndPath(key CacheKey) (keyBytes []byte, path string, err error) {
	keyBytes, err = key.Encode()
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(keyBytes)
	return keyBytes, filepath.Join(b.dir, hex.EncodeToString(sum[:])+cacheFileSuffix), nil
}

// Get implements CacheBackend.
func (b *FileBackend) Get(key CacheKey) (Estimate, bool, error) {
	want, path, err := b.encodeAndPath(key)
	if err != nil {
		return Estimate{}, false, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Estimate{}, false, nil
	}
	if err != nil {
		return Estimate{}, false, fmt.Errorf("core: reading cache entry: %w", err)
	}
	var entry fileEntry
	if err := json.Unmarshal(data, &entry); err != nil {
		return Estimate{}, false, fmt.Errorf("core: corrupt cache entry %s: %w", filepath.Base(path), err)
	}
	if entry.Version != fileEntryVersion {
		// A foreign envelope version is not corruption, just a different
		// era of the store: miss.
		return Estimate{}, false, nil
	}
	// Verify the stored canonical key byte-for-byte against the requested
	// one: collisions and stale key schemas read as misses.
	if !bytes.Equal(bytes.TrimSpace(entry.Key), want) {
		return Estimate{}, false, nil
	}
	b.hits.Add(1)
	return entry.Estimate, true, nil
}

// Put implements CacheBackend.
func (b *FileBackend) Put(key CacheKey, est Estimate) error {
	keyBytes, path, err := b.encodeAndPath(key)
	if err != nil {
		return err
	}
	data, err := json.Marshal(fileEntry{Version: fileEntryVersion, Key: keyBytes, Estimate: est})
	if err != nil {
		return fmt.Errorf("core: encoding cache entry: %w", err)
	}
	// Write-to-temp + rename: the entry appears atomically under its final
	// name. The temp name is unique per (process, write) so concurrent
	// writers — including other processes sharing the directory — never
	// collide on it.
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), fileTempSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("core: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("core: committing cache entry: %w", err)
	}
	return nil
}

// Reset implements CacheBackend: it removes every committed entry in the
// directory — plus any orphaned temp files left behind by writers that
// crashed between write and rename, which nothing else ever collects —
// and zeroes this process's hit counter. A concurrent writer whose temp
// file Reset sweeps away fails its rename, which Put callers already
// treat as a dropped (best-effort) store.
func (b *FileBackend) Reset() error {
	des, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("core: listing cache directory: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.Contains(name, cacheFileSuffix) {
			continue // committed entries and their temp files only
		}
		if err := os.Remove(filepath.Join(b.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("core: resetting cache: %w", err)
		}
	}
	b.hits.Store(0)
	return nil
}

// Stats implements CacheBackend. Entries counts committed records in the
// shared directory; Hits counts this process's successful Gets.
func (b *FileBackend) Stats() (CacheStats, error) {
	names, err := b.entries()
	if err != nil {
		return CacheStats{}, err
	}
	return CacheStats{Entries: len(names), Hits: b.hits.Load()}, nil
}

// entries lists the committed entry files in the cache directory.
func (b *FileBackend) entries() ([]string, error) {
	des, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("core: listing cache directory: %w", err)
	}
	var names []string
	for _, de := range des {
		if name := de.Name(); strings.HasSuffix(name, cacheFileSuffix) && !de.IsDir() {
			names = append(names, name)
		}
	}
	return names, nil
}
