package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/xrand"
)

// ---------------------------------------------------------------------------
// Result memoization
//
// Every estimator is a pure function of its Config (the effective seed is
// part of the Config and is derived from the master seed and the Config's
// own content), so a (config, method) pair fully determines its Estimate.
// Experiments re-evaluate identical grid points constantly — Figure 4 and
// Figure 5 run the same PDT×PUD sweep, Tables 4 and 5 repeat it per PUD —
// and separate Runners are no obstacle to sharing: equal effective configs
// mean equal results regardless of which Runner computed them. Nor are
// separate processes: processes on one machine can share one FileBackend
// directory, and a sweep-service coordinator (internal/sweepd) stores the
// results its workers submit (Runner.Store) and answers resubmitted
// scenarios from them.
//
// The cache is therefore pluggable behind CacheBackend, keyed by CacheKey:
// the full config value plus the estimator's method name and concrete Go
// type (the type guards against two unrelated estimators that happen to
// share a Name; two estimators of the same type whose Name hides differing
// behavior must opt out via WithCache(false)). The default backend is a
// process-wide in-memory map bounded by LRU eviction.

// CacheKeyVersion is the schema version of the canonical key encoding.
// Bump it whenever the wire shape of CacheKey (including Config's field
// set) changes: stores compare a stored key's encoding with the requested
// one, so stale entries written by an older binary read as misses instead
// of silently aliasing new keys.
//
// The wire form additionally stamps xrand.StreamVersion (the simulators'
// draw law) into every key: an engine change that redraws the same seeds
// differently — like the version-3 ziggurat exponential — invalidates all
// cached simulation results without a schema bump, because both the hash
// (file backends store under it) and the stored key bytes cover the stamp.
const CacheKeyVersion = 1

// CacheKey identifies one memoized estimator result: the effective model
// configuration, the estimator's method name, and the estimator's concrete
// implementation identity. The zero value is not a valid key; Runners
// derive keys internally and backends treat them as opaque.
type CacheKey struct {
	// Config is the full effective configuration the estimate was (or
	// would be) computed from, including the effective seed.
	Config Config
	// Method is the estimator's Name().
	Method string
	// Estimator is the implementation identity — the estimator's Go type
	// path (through the AdaptEstimator shim), e.g.
	// "repro/internal/core.Simulation".
	Estimator string
}

// cacheKeyWire is the canonical serialized form of a CacheKey. Field order
// is fixed by declaration order (encoding/json emits struct fields in
// order), so equal keys encode to equal bytes.
type cacheKeyWire struct {
	Version   int    `json:"v"`
	DrawLaw   int    `json:"drawlaw"`
	Estimator string `json:"estimator"`
	Method    string `json:"method"`
	Config    Config `json:"config"`
}

// Encode renders the key in its canonical, versioned wire form. Equal keys
// encode to equal bytes, so the encoding (or a digest of it — see Hash) can
// index shared stores across processes. Configurations containing NaN or
// infinite values are not encodable.
func (k CacheKey) Encode() ([]byte, error) {
	b, err := json.Marshal(cacheKeyWire{
		Version:   CacheKeyVersion,
		DrawLaw:   xrand.StreamVersion,
		Estimator: k.Estimator,
		Method:    k.Method,
		Config:    k.Config,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encoding cache key: %w", err)
	}
	return b, nil
}

// Hash returns the hex SHA-256 digest of the canonical encoding — the
// fixed-length form file and KV backends use as the storage key.
func (k CacheKey) Hash() (string, error) {
	b, err := k.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CacheStats reports the observable state of a cache backend. The JSON
// shape is what a sweep coordinator's cache stats endpoint serves.
type CacheStats struct {
	// Entries is the number of results currently stored.
	Entries int `json:"entries"`
	// Hits counts successful Gets served by this backend instance (for
	// shared stores, hits are counted per process, not globally).
	Hits uint64 `json:"hits"`
	// Evictions counts entries dropped by the backend's bounding policy
	// (the MemoryBackend's LRU eviction); unbounded backends report 0.
	Evictions uint64 `json:"evictions,omitempty"`
}

// CacheBackend stores memoized estimator results. Implementations must be
// safe for concurrent use by multiple goroutines; backends backed by
// shared storage (FileBackend) must additionally tolerate concurrent use
// from multiple processes.
//
// The Runner treats the cache as strictly best-effort: a Get error is a
// miss (the estimate is recomputed) and a Put error drops the entry, so a
// degraded backend can slow a sweep down but never change its results.
type CacheBackend interface {
	// Get returns the estimate stored under key, if any.
	Get(key CacheKey) (Estimate, bool, error)
	// Put stores est under key, overwriting any previous entry.
	Put(key CacheKey, est Estimate) error
	// Reset drops every entry and zeroes the hit counter.
	Reset() error
	// Stats reports the entry and hit counts.
	Stats() (CacheStats, error)
}

// defaultMemoryEntries bounds a MemoryBackend whose MaxEntries is unset
// (~64k entries; an Estimate is a small value struct).
const defaultMemoryEntries = 1 << 16

// MemoryBackend is the default CacheBackend: a process-local map bounded
// by least-recently-used eviction. When a Put would exceed the bound, the
// entry that has gone longest without a Get or Put is dropped and counted
// in CacheStats.Evictions, so a long-lived sweep coordinator keeps the
// working set of the sweeps in flight warm while old grids age out.
//
// The zero value is an empty backend with the default bound. All methods
// are safe for concurrent use.
type MemoryBackend struct {
	// MaxEntries bounds the resident entries (non-positive: 65536). Set
	// it before first use.
	MaxEntries int

	mu     sync.Mutex
	ll     *list.List // of *memEntry, front = most recently used
	m      map[CacheKey]*list.Element
	hits   uint64
	evicts uint64
}

// memEntry is one resident cache entry (the list element value).
type memEntry struct {
	key CacheKey
	est Estimate
}

// NewMemoryBackend returns an empty in-memory backend with the default
// entry bound.
func NewMemoryBackend() *MemoryBackend { return &MemoryBackend{} }

// Get implements CacheBackend; a hit refreshes the entry's recency.
// Estimate carries no reference types, so the returned value copy keeps
// the cache immune to caller mutation.
func (b *MemoryBackend) Get(key CacheKey) (Estimate, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	el, ok := b.m[key]
	if !ok {
		return Estimate{}, false, nil
	}
	b.ll.MoveToFront(el)
	b.hits++
	return el.Value.(*memEntry).est, true, nil
}

// Put implements CacheBackend, evicting the least recently used entry when
// the backend is full.
func (b *MemoryBackend) Put(key CacheKey, est Estimate) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.m[key]; ok {
		el.Value.(*memEntry).est = est
		b.ll.MoveToFront(el)
		return nil
	}
	if b.ll == nil {
		b.resetLocked()
	}
	max := b.MaxEntries
	if max <= 0 {
		max = defaultMemoryEntries
	}
	for b.ll.Len() >= max {
		oldest := b.ll.Back()
		b.ll.Remove(oldest)
		delete(b.m, oldest.Value.(*memEntry).key)
		b.evicts++
	}
	b.m[key] = b.ll.PushFront(&memEntry{key: key, est: est})
	return nil
}

// Reset implements CacheBackend.
func (b *MemoryBackend) Reset() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resetLocked()
	b.hits = 0
	b.evicts = 0
	return nil
}

// resetLocked drops every entry; the caller holds b.mu.
func (b *MemoryBackend) resetLocked() {
	b.ll = list.New()
	b.m = make(map[CacheKey]*list.Element)
}

// Stats implements CacheBackend.
func (b *MemoryBackend) Stats() (CacheStats, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return CacheStats{Entries: len(b.m), Hits: b.hits, Evictions: b.evicts}, nil
}

// defaultCache is the process-wide backend Runners use unless
// WithCacheBackend overrides it.
var defaultCache CacheBackend = NewMemoryBackend()

// DefaultCacheBackend returns the process-wide backend shared by every
// Runner that does not configure its own via WithCacheBackend.
func DefaultCacheBackend() CacheBackend { return defaultCache }

// ResetEstimateCache empties the process-wide default result cache (used
// by tests and by long-lived services that change estimator
// implementations at runtime — the cache assumes an estimator name always
// denotes the same pure function). Runners configured with their own
// backend are unaffected; reset those through Runner.ResetEstimateCache.
func ResetEstimateCache() {
	// The default backend's Reset cannot fail.
	_ = defaultCache.Reset()
}

// EstimateCacheStats reports the current entry and hit counts of the
// process-wide default result cache.
func EstimateCacheStats() (entries int, hits uint64) {
	s, err := defaultCache.Stats()
	if err != nil {
		return 0, 0
	}
	return s.Entries, s.Hits
}

// estimatorID derives the cache identity of an estimator: its concrete Go
// type path, looking through the AdaptEstimator shim so an adapted
// estimator shares cache entries with (and only with) its underlying
// implementation.
func estimatorID(e Estimator) string {
	var t reflect.Type
	if a, ok := e.(interface{ Unwrap() LegacyEstimator }); ok {
		t = reflect.TypeOf(a.Unwrap())
	} else {
		t = reflect.TypeOf(e)
	}
	prefix := ""
	for t != nil && t.Kind() == reflect.Pointer {
		prefix += "*"
		t = t.Elem()
	}
	if t == nil {
		return prefix
	}
	if p := t.PkgPath(); p != "" {
		return prefix + p + "." + t.Name()
	}
	return prefix + t.String()
}
