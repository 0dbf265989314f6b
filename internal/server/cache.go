package server

import (
	"container/list"
	"sync"
	"time"

	"colarm/internal/obs"
)

// resultCache is a sharded LRU cache of encoded /v1/mine replies, keyed
// by "<dataset>@g<generation>.v<version>|<Query.Canonical()>". Sharding
// keeps lock contention off the serving hot path; each shard holds its
// own LRU list under its own mutex. Entries are bounded three ways: a
// per-shard entry capacity and a per-shard byte budget (both evicting
// least-recently-used) and a TTL (entries past it are misses and are
// dropped on sight). Engine reloads invalidate by key construction — a
// bumped generation never matches old keys, and the orphaned entries
// age out through LRU pressure or TTL.
//
// A reply is a pure function of its key, so an entry is the complete
// hit body, encoded once at fill time: cached:true, the execution's
// identity (plan, subset size, minsupport count) in stats and every
// operator counter zero — a hit did no mining work, and the counters
// say so. The body is immutable: put takes ownership of the slice and
// get hands it out only to be written to the response, so no caller
// can corrupt the cache and a hit copies nothing.
type resultCache struct {
	shards      []cacheShard
	perShardCap int
	ttl         time.Duration

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	bytes     *obs.Gauge
}

type cacheShard struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	lru   list.List // front = most recently used
	bytes int       // sum of the resident entries' sizes
}

type cacheEntry struct {
	key     string
	body    []byte    // never written after put
	expires time.Time // zero when the cache has no TTL
}

// size is what an entry counts against its shard's byte budget.
func (e *cacheEntry) size() int { return len(e.key) + len(e.body) }

const (
	cacheShardCount = 16
	// cacheShardBytes is each shard's byte budget: 256 MiB in all, so
	// the default 4096 entries of 0.3–0.6 MB replies cannot grow the
	// heap by the gigabyte benchmark/README.md records.
	cacheShardBytes = 16 << 20
)

// newResultCache sizes a cache for about maxEntries entries total with
// the given TTL (0 disables expiry) and registers hit/miss/eviction
// counters and the resident-bytes gauge in reg.
func newResultCache(maxEntries int, ttl time.Duration, reg *obs.Registry) *resultCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	per := (maxEntries + cacheShardCount - 1) / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &resultCache{
		shards:      make([]cacheShard, cacheShardCount),
		perShardCap: per,
		ttl:         ttl,
		hits:        reg.Counter("colarm_cache_hits_total", "Query results served from the result cache."),
		misses:      reg.Counter("colarm_cache_misses_total", "Result-cache lookups that found no live entry."),
		evictions:   reg.Counter("colarm_cache_evictions_total", "Result-cache entries evicted by entry capacity, byte budget or TTL, or refused as larger than a shard's budget."),
		bytes:       reg.Gauge("colarm_cache_bytes", "Bytes of reply bodies and keys resident in the result cache."),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *resultCache) shard(key string) *cacheShard {
	return &c.shards[fnv32a(key)%cacheShardCount]
}

// remove drops el from the shard; the caller holds sh.mu.
func (c *resultCache) remove(sh *cacheShard, el *list.Element) {
	ent := sh.lru.Remove(el).(*cacheEntry)
	delete(sh.m, ent.key)
	sh.bytes -= ent.size()
	c.bytes.Add(-int64(ent.size()))
	c.evictions.Inc()
}

// get returns the cached reply body for key — to be written, never
// modified — or nil on a miss (absent or expired).
func (c *resultCache) get(key string) []byte {
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil
	}
	ent := el.Value.(*cacheEntry)
	if !ent.expires.IsZero() && time.Now().After(ent.expires) {
		c.remove(sh, el)
		sh.mu.Unlock()
		c.misses.Inc()
		return nil
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Inc()
	return ent.body
}

// put stores body, which the caller must not touch again, under key,
// evicting from the shard's LRU tail while it is over its entry
// capacity or byte budget. A body no shard could hold is not stored.
func (c *resultCache) put(key string, body []byte) {
	ent := &cacheEntry{key: key, body: body}
	if ent.size() > cacheShardBytes {
		c.evictions.Inc()
		return
	}
	if c.ttl > 0 {
		ent.expires = time.Now().Add(c.ttl)
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[key]; ok {
		// A refill: same key, same reply. Not an eviction.
		old := el.Value.(*cacheEntry)
		sh.bytes -= old.size()
		c.bytes.Add(-int64(old.size()))
		el.Value = ent
		sh.lru.MoveToFront(el)
	} else {
		sh.m[key] = sh.lru.PushFront(ent)
	}
	sh.bytes += ent.size()
	c.bytes.Add(int64(ent.size()))
	for sh.lru.Len() > c.perShardCap || sh.bytes > cacheShardBytes {
		c.remove(sh, sh.lru.Back())
	}
}

// len returns the live entry count across all shards (expired entries
// still resident are counted; they leave on next touch).
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// fnv32a is the 32-bit FNV-1a hash used to pick a shard.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
