package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/energy"
	"repro/internal/xrand"
)

// TestCacheKeyDistinguishes: any change to config, method or estimator
// identity must change the canonical encoding.
func TestCacheKeyDistinguishes(t *testing.T) {
	base := CacheKey{Config: PaperConfig(), Method: "Simulation", Estimator: "core.Simulation"}
	variants := []CacheKey{base, base, base, base}
	variants[1].Method = "Markov"
	variants[2].Estimator = "core.Markov"
	variants[3].Config.PDT += 1e-9
	seen := map[string]int{}
	for i, k := range variants[1:] {
		h, err := k.Hash()
		if err != nil {
			t.Fatal(err)
		}
		baseHash, _ := base.Hash()
		if h == baseHash {
			t.Fatalf("variant %d collides with the base key", i+1)
		}
		seen[h]++
	}
	if len(seen) != 3 {
		t.Fatalf("variants collide among themselves: %v", seen)
	}
}

// getWithEmbeddedKey stores an estimate under key in a fresh file
// backend, rewrites that entry so it embeds wire as its key, and looks key
// up again.
func getWithEmbeddedKey(t *testing.T, key CacheKey, wire string) (bool, error) {
	t.Helper()
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(key, Estimate{EnergyJ: 1}); err != nil {
		t.Fatal(err)
	}
	_, path, err := b.encodeAndPath(key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fileEntry{Version: fileEntryVersion, Key: json.RawMessage(wire), Estimate: Estimate{EnergyJ: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := b.Get(key)
	return ok, err
}

// requireForeignKeyMisses checks that an entry embedding wire, a mutation
// of key's encoding, reads as a clean miss for key, while one embedding
// key's own encoding hits.
func requireForeignKeyMisses(t *testing.T, key CacheKey, wire string) {
	t.Helper()
	data, err := key.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if wire == string(data) {
		t.Fatalf("test setup: %s is the key's own encoding", wire)
	}
	if ok, err := getWithEmbeddedKey(t, key, string(data)); !ok || err != nil {
		t.Fatalf("entry with the key's own encoding: ok=%v err=%v, want a hit", ok, err)
	}
	if ok, err := getWithEmbeddedKey(t, key, wire); ok || err != nil {
		t.Fatalf("entry embedding %s: ok=%v err=%v, want a clean miss", wire, ok, err)
	}
}

// TestCacheKeyVersionBumpRejected: a file entry whose embedded key was
// encoded under any other schema version reads as a miss.
func TestCacheKeyVersionBumpRejected(t *testing.T) {
	key := CacheKey{Config: PaperConfig(), Method: "Simulation", Estimator: "core.Simulation"}
	data, err := key.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, CacheKeyVersion + 1, -1} {
		bumped := strings.Replace(string(data),
			fmt.Sprintf(`"v":%d`, CacheKeyVersion), fmt.Sprintf(`"v":%d`, v), 1)
		requireForeignKeyMisses(t, key, bumped)
	}
}

// TestCacheKeyDrawLawChangeMisses: keys written under a different sampling
// law — by older binaries whose encodings carry no "drawlaw" stamp (file
// caches written before the ziggurat sampler), or under an explicit other
// version — must neither match nor share a storage hash with current keys,
// so stale simulation results read as misses instead of silently mixing
// streams.
func TestCacheKeyDrawLawChangeMisses(t *testing.T) {
	key := CacheKey{Config: PaperConfig(), Method: "Simulation", Estimator: "core.Simulation"}
	data, err := key.Encode()
	if err != nil {
		t.Fatal(err)
	}
	curMarker := fmt.Sprintf(`"drawlaw":%d`, xrand.StreamVersion)
	if !strings.Contains(string(data), curMarker) {
		t.Fatalf("encoding does not stamp the draw law: %s", data)
	}
	// A same-schema key under another law version must miss.
	old := strings.Replace(string(data), curMarker, `"drawlaw":2`, 1)
	requireForeignKeyMisses(t, key, old)
	// A pre-stamp encoding (the wire shape before the stamp, no drawlaw field)
	// must miss too.
	legacy := strings.Replace(string(data), curMarker+`,`, ``, 1)
	if strings.Contains(legacy, "drawlaw") {
		t.Fatalf("test setup: stamp not removed from %s", legacy)
	}
	requireForeignKeyMisses(t, key, legacy)
	// File backends address records by the encoding's hash, so the stamped
	// and legacy byte forms can never alias one another's files.
	if string(data) == legacy || string(data) == old {
		t.Fatal("stamped and unstamped encodings are byte-identical")
	}
}

// TestCacheKeyUnknownFieldsRejected: an entry whose key was written by a
// richer (future) schema that forgot to bump the version reads as a miss
// rather than silently dropping the unknown field.
func TestCacheKeyUnknownFieldsRejected(t *testing.T) {
	key := CacheKey{Config: PaperConfig(), Method: "Simulation", Estimator: "core.Simulation"}
	data, err := key.Encode()
	if err != nil {
		t.Fatal(err)
	}
	requireForeignKeyMisses(t, key, strings.Replace(string(data), `"method":`, `"voltage":1.8,"method":`, 1))
}

// TestCacheKeyNaNUnencodable: configurations containing NaN have no
// canonical form and must error instead of storing garbage.
func TestCacheKeyNaNUnencodable(t *testing.T) {
	key := CacheKey{Config: PaperConfig(), Method: "m", Estimator: "e"}
	key.Config.Lambda = math.NaN()
	if _, err := key.Encode(); err == nil {
		t.Fatal("NaN config encoded without error")
	}
	if _, err := key.Hash(); err == nil {
		t.Fatal("NaN config hashed without error")
	}
}

// TestMemoryBackendZeroValue: a directly constructed backend must behave
// like a default one, not evict on every Put.
func TestMemoryBackendZeroValue(t *testing.T) {
	var b MemoryBackend
	for i := 0; i < 3; i++ {
		cfg := PaperConfig()
		cfg.Seed = uint64(i)
		if err := b.Put(CacheKey{Config: cfg, Method: "m", Estimator: "e"}, Estimate{EnergyJ: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := b.Stats(); st.Entries != 3 {
		t.Fatalf("zero-value backend holds %d entries, want 3", st.Entries)
	}
}

func TestMemoryBackendBasics(t *testing.T) {
	b := NewMemoryBackend()
	key := CacheKey{Config: PaperConfig(), Method: "m", Estimator: "e"}
	if _, ok, err := b.Get(key); ok || err != nil {
		t.Fatalf("empty backend: ok=%v err=%v", ok, err)
	}
	want := Estimate{Method: "m", EnergyJ: 42}
	if err := b.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get(key)
	if !ok || err != nil || got != want {
		t.Fatalf("Get = %+v, %v, %v; want the stored estimate", got, ok, err)
	}
	st, err := b.Stats()
	if err != nil || st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, %v; want 1 entry, 1 hit", st, err)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if st, _ := b.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("reset left %+v", st)
	}
}

// lruKey builds a distinct cache key per index.
func lruKey(i int) CacheKey {
	cfg := Config{Lambda: 1, Mu: 2, PDT: float64(i + 1)}
	return CacheKey{Config: cfg, Method: "markov", Estimator: "test.Estimator"}
}

// TestLRUBackendEviction: a full MemoryBackend drops the least recently
// used entry, one at a time, and counts it.
func TestLRUBackendEviction(t *testing.T) {
	b := &MemoryBackend{MaxEntries: 3}
	for i := 0; i < 3; i++ {
		if err := b.Put(lruKey(i), Estimate{EnergyJ: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is the least recently used.
	if _, ok, _ := b.Get(lruKey(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	if err := b.Put(lruKey(3), Estimate{EnergyJ: 3}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get(lruKey(1)); ok {
		t.Fatal("least recently used key survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if est, ok, _ := b.Get(lruKey(i)); !ok || est.EnergyJ != float64(i) {
			t.Fatalf("key %d = (%+v, %v), want resident", i, est, ok)
		}
	}
	s, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 entries, 1 eviction", s)
	}

	// Updating a resident key evicts nothing and refreshes its recency.
	if err := b.Put(lruKey(2), Estimate{EnergyJ: 22}); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats(); s.Entries != 3 || s.Evictions != 1 {
		t.Fatalf("update-in-place changed bounds: %+v", s)
	}
	if est, ok, _ := b.Get(lruKey(2)); !ok || est.EnergyJ != 22 {
		t.Fatalf("update-in-place lost the new value: (%+v, %v)", est, ok)
	}

	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if s, _ := b.Stats(); s.Entries != 0 || s.Hits != 0 || s.Evictions != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
}

// TestLRUBackendDefaultBound: an unset or non-positive MaxEntries bounds
// the backend at the default, evicting exactly past it.
func TestLRUBackendDefaultBound(t *testing.T) {
	for _, b := range []*MemoryBackend{NewMemoryBackend(), {MaxEntries: -1}} {
		for i := 0; i <= defaultMemoryEntries; i++ {
			if err := b.Put(lruKey(i), Estimate{}); err != nil {
				t.Fatal(err)
			}
		}
		if s, _ := b.Stats(); s.Entries != defaultMemoryEntries || s.Evictions != 1 {
			t.Fatalf("MaxEntries %d: stats = %+v, want %d entries, 1 eviction", b.MaxEntries, s, defaultMemoryEntries)
		}
	}
}

// TestEstimatorIDIdentities pins the cache-identity derivation: concrete
// type paths, the AdaptEstimator unwrap, and pointer receivers.
func TestEstimatorIDIdentities(t *testing.T) {
	if got := estimatorID(Simulation{}); got != "repro/internal/core.Simulation" {
		t.Fatalf("Simulation id = %q", got)
	}
	if got := estimatorID(&Simulation{}); got != "*repro/internal/core.Simulation" {
		t.Fatalf("*Simulation id = %q", got)
	}
	// An adapted legacy estimator must share identity with its wrapped
	// implementation, not with the shim.
	var calls atomic.Int64
	adapted := AdaptEstimator(countingEstimator{calls: &calls})
	if got := estimatorID(adapted); !strings.HasSuffix(got, ".countingEstimator") {
		t.Fatalf("adapted id = %q, want the wrapped type's", got)
	}
}

// TestDefaultBackendFacade: the package-level reset/stats helpers operate
// on the process-wide default backend.
func TestDefaultBackendFacade(t *testing.T) {
	ResetEstimateCache()
	t.Cleanup(ResetEstimateCache)
	key := CacheKey{Config: PaperConfig(), Method: "m", Estimator: "e"}
	if err := DefaultCacheBackend().Put(key, Estimate{EnergyJ: 1}); err != nil {
		t.Fatal(err)
	}
	if entries, _ := EstimateCacheStats(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	ResetEstimateCache()
	if entries, _ := EstimateCacheStats(); entries != 0 {
		t.Fatalf("after reset entries = %d", entries)
	}
}

// TestCacheKeyWireShapeStable pins the canonical field order: changing it
// silently would orphan every shared cache in the field, so it must fail a
// test instead.
func TestCacheKeyWireShapeStable(t *testing.T) {
	key := CacheKey{Method: "m", Estimator: "e"}
	key.Config.Power = energy.PXA271
	data, err := key.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		V int `json:"v"`
	}
	if err := json.Unmarshal(data, &probe); err != nil || probe.V != CacheKeyVersion {
		t.Fatalf("wire form lost the version marker: %s", data)
	}
	for _, marker := range []string{`"v":`, `"estimator":"e"`, `"method":"m"`, `"config":{`, `"Lambda":`, `"MW":[`} {
		if !strings.Contains(string(data), marker) {
			t.Fatalf("wire form missing %s:\n%s", marker, data)
		}
	}
	if !strings.HasPrefix(string(data), `{"v":`) {
		t.Fatalf("version must lead the wire form for cheap inspection:\n%s", data)
	}
}
