package solver

import (
	"sync"
	"unsafe"
)

// Cache is a sharded, mutex-striped SAT/UNSAT memo table keyed by the
// canonical identity of a constraint set (sym.Set.CacheKey). A single
// Cache is safely shared by every SCC worker and path worker of an
// analysis run: results are deterministic for fixed Limits, so sharing
// only removes duplicate solves, never changes an answer.
//
// Alongside the verdict, each entry records whether solving the query
// exceeded a budget (gave up). Cache hits replay that flag and the
// verdict, so a solver's give-up, Sat and Unsat counts are a
// deterministic function of the queries it issued — independent of which
// worker happened to populate the cache first. That is what keeps
// per-function give-up diagnostics byte-identical at any Workers setting.
//
// A cache lives as long as its run, and so do its keys: each shard copies
// the keys it stores into a chunked byte arena rather than allocating a
// string per entry.
type Cache struct {
	shards [cacheShardCount]cacheShard
}

const cacheShardCount = 64

// A shard's first key chunk holds keyChunkMin bytes; each later one
// doubles, up to keyChunkMax.
const (
	keyChunkMin = 256
	keyChunkMax = 32 << 10
)

// cache entry bits.
const (
	entrySat    uint8 = 1 << 0
	entryGaveUp uint8 = 1 << 1
)

type cacheShard struct {
	mu   sync.RWMutex
	m    map[string]uint8
	keys []byte // arena chunk; stored keys are views of its bytes
}

// keep returns a copy of key in the shard's arena. Keys are only ever
// appended within a chunk's capacity, so earlier views stay valid after
// a new chunk is started. Callers hold the write lock.
func (s *cacheShard) keep(key []byte) string {
	if cap(s.keys)-len(s.keys) < len(key) {
		s.keys = make([]byte, 0, max(min(max(2*cap(s.keys), keyChunkMin), keyChunkMax), len(key)))
	}
	start := len(s.keys)
	s.keys = append(s.keys, key...)
	return unsafe.String(unsafe.SliceData(s.keys[start:]), len(key))
}

// NewCache returns an empty shared solver cache. A shard's map is made
// by its first Put, so a run that issues few queries pays for few maps.
func NewCache() *Cache { return &Cache{} }

// shardFor hashes the key (FNV-1a) onto a stripe.
func (c *Cache) shardFor(key []byte) *cacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShardCount]
}

// Get returns the memoized verdict and give-up flag for key, if present.
// The key is taken as bytes so probing with a reused buffer allocates
// nothing (the map lookup converts in place).
func (c *Cache) Get(key []byte) (verdict, gaveUp, ok bool) {
	s := c.shardFor(key)
	s.mu.RLock()
	e, ok := s.m[string(key)]
	s.mu.RUnlock()
	return e&entrySat != 0, e&entryGaveUp != 0, ok
}

// Put records the verdict for key. Last writer wins; concurrent writers
// always agree because the solver is deterministic for fixed limits.
func (c *Cache) Put(key []byte, verdict, gaveUp bool) {
	var e uint8
	if verdict {
		e |= entrySat
	}
	if gaveUp {
		e |= entryGaveUp
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]uint8)
	}
	s.m[s.keep(key)] = e
	s.mu.Unlock()
}

// Len returns the number of memoized entries (diagnostics and tests).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
