package sweepd

import (
	"sync/atomic"

	"repro/internal/core"
)

// tieredCache is the coordinator's result cache when a persistent store
// backs it: the resident LRU answers from memory, a miss reads through to
// the store (promoting the entry), and a Put writes through to both, so a
// warm resubmission decodes no file while a restarted coordinator still
// finds every entry its predecessor stored. A MemoryBackend never returns
// an error, so the resident tier's are not checked.
type tieredCache struct {
	mem   *core.MemoryBackend
	store core.CacheBackend
	// storeHits counts Gets the store answered after the resident tier
	// missed; the resident tier counts its own.
	storeHits atomic.Uint64
}

// Get implements core.CacheBackend.
func (c *tieredCache) Get(key core.CacheKey) (core.Estimate, bool, error) {
	if est, ok, _ := c.mem.Get(key); ok {
		return est, true, nil
	}
	est, ok, err := c.store.Get(key)
	if err != nil || !ok {
		return est, false, err
	}
	c.storeHits.Add(1)
	_ = c.mem.Put(key, est)
	return est, true, nil
}

// Put implements core.CacheBackend. The resident tier keeps the entry even
// when the store refuses it.
func (c *tieredCache) Put(key core.CacheKey, est core.Estimate) error {
	_ = c.mem.Put(key, est)
	return c.store.Put(key, est)
}

// Reset implements core.CacheBackend: it empties both tiers.
func (c *tieredCache) Reset() error {
	_ = c.mem.Reset()
	c.storeHits.Store(0)
	return c.store.Reset()
}

// Stats implements core.CacheBackend. Entries is the store's count (it
// holds every entry written through); Hits counts each hit once, whichever
// tier served it; Evictions are the resident tier's.
func (c *tieredCache) Stats() (core.CacheStats, error) {
	mem, _ := c.mem.Stats()
	st, err := c.store.Stats()
	if err != nil {
		return core.CacheStats{}, err
	}
	return core.CacheStats{Entries: st.Entries, Hits: mem.Hits + c.storeHits.Load(), Evictions: mem.Evictions}, nil
}

// writeBehind is the backend Results stores accepted estimates through
// while it holds the coordinator's lock: each Put lands in the resident
// tier at once and is queued for the store, which flush writes once the
// lock is released. Lookups pass through to the tiered cache.
type writeBehind struct {
	*tieredCache
	queued []queuedPut
}

// queuedPut is one store write writeBehind owes.
type queuedPut struct {
	key core.CacheKey
	est core.Estimate
}

// Put implements core.CacheBackend: resident now, store on flush.
func (w *writeBehind) Put(key core.CacheKey, est core.Estimate) error {
	_ = w.mem.Put(key, est)
	w.queued = append(w.queued, queuedPut{key, est})
	return nil
}

// flush writes every queued entry through to the store. A store that
// refuses one only loses it for a restarted coordinator: the resident tier
// already holds it.
func (w *writeBehind) flush() {
	for _, p := range w.queued {
		_ = w.store.Put(p.key, p.est)
	}
}
