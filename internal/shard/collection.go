package shard

import (
	"sync"

	"colarm/internal/bitset"
	"colarm/internal/delta"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/pool"
)

// Config configures a Collection.
type Config struct {
	// Shards is K; values < 1 are clamped to 1.
	Shards int
	// Primary is the engine's primary-support fraction.
	Primary float64
	// Workers bounds the fan-out of the partition restriction: 0 means
	// one worker per CPU, 1 forces serial. Workers write pre-indexed
	// slots, so results are worker-count-invariant.
	Workers int
}

// ShardStat is one shard's slice of the engine's staleness surface. The
// facade exports it as colarm.ShardStaleness, and /v1/ingest,
// /v1/datasets and /v1/datasets/{name} serve it per shard, under these
// tags, so operators see which partitions are drifting.
type ShardStat struct {
	// Shard is the shard number in [0, K).
	Shard int `json:"shard"`
	// Records counts the live records the shard currently owns
	// (base minus tombstones plus buffered inserts routed here).
	Records int `json:"records"`
	// BufferedRows counts live buffered inserts routed to this shard.
	BufferedRows int `json:"bufferedRows"`
	// Tombstones counts deletions of records this shard owns.
	Tombstones int `json:"tombstones"`
	// Version is the shard's clock: it ticks on every ingest batch that
	// touches the shard, and restarts at 0 when a rebuild re-partitions
	// the fresh index.
	Version uint64 `json:"version"`
}

// Collection partitions one engine's records into K hash-routed shards.
// It wraps a single delta.Store — the store's validation, merged-surface
// construction, refresh policy and rebuild input are
// partition-independent, so the collection only adds the partition: the
// slices it decorates the store's surfaces with, and per-shard version
// clocks. Lock order is Collection.mu, then Store.mu (the store calls
// back out only into ShardStats' routing closures, which touch neither
// lock).
type Collection struct {
	idx     *mip.Index
	store   *delta.Store
	router  *Router
	workers int

	mu       sync.Mutex
	appended int      // rows routed so far; derives buffered record ids
	versions []uint64 // per-shard ingest clocks

	// frozen is the store's version-0 surface decorated with the
	// partition of the index as built; mergedSrc/mergedDec cache the
	// decorated merged surface per store surface (the store already
	// caches one surface per delta version).
	frozen    *plans.Surface
	mergedSrc *plans.Surface
	mergedDec *plans.Surface
}

// New builds a collection over a freshly built or loaded index,
// partitioning its records by hash.
func New(idx *mip.Index, cfg Config) *Collection {
	r := NewRouter(cfg.Shards)
	c := &Collection{
		idx:      idx,
		store:    delta.NewStore(idx, cfg.Primary),
		router:   r,
		workers:  cfg.Workers,
		versions: make([]uint64, r.Shards()),
	}
	c.store.SetWorkers(cfg.Workers)
	n := idx.Dataset.NumRecords()
	live := bitset.New(n)
	live.Fill()
	frozen := *c.store.Surface()
	frozen.Slices = c.partition(live, idx.Tidsets, n)
	c.frozen = &frozen
	return c
}

// NumShards returns K.
func (c *Collection) NumShards() int { return c.router.Shards() }

// Store exposes the wrapped delta store; the engine's staleness,
// refresh-policy, rebuild and snapshot surfaces read through it
// unchanged.
func (c *Collection) Store() *delta.Store { return c.store }

// Ingest routes one transaction batch: the wrapped store validates and
// buffers it (all-or-nothing), then the clocks of every shard the batch
// touches tick. Inserted rows take ids baseN, baseN+1, ... in arrival
// order — the same ids the store assigns — and the router maps ids to
// shards, so the partition key is the record id itself.
func (c *Collection) Ingest(rows [][]int32, deletes []int) (delta.Staleness, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.store.Ingest(rows, deletes)
	if err != nil {
		return st, err
	}
	baseN := c.idx.Dataset.NumRecords()
	touched := make(map[int]bool, len(rows)+len(deletes))
	for i := range rows {
		touched[c.router.Of(baseN+c.appended+i)] = true
	}
	for _, id := range deletes {
		touched[c.router.Of(id)] = true
	}
	c.appended += len(rows)
	for s := range touched {
		c.versions[s]++
	}
	return st, nil
}

// Surface returns the store's surface of the current delta version
// decorated with the shard partition: the frozen index's surface with
// the slices of the index as built while nothing has been ingested, the
// merged surface with the merged partition afterwards. The store builds
// (and caches) one surface per delta version; the merged slices are
// cached alongside it, so concurrent queries share one immutable
// surface per version.
func (c *Collection) Surface() *plans.Surface {
	c.mu.Lock()
	defer c.mu.Unlock()
	sv := c.store.Surface()
	if sv.Version == 0 {
		return c.frozen
	}
	if c.mergedSrc == sv {
		return c.mergedDec
	}
	v := *sv
	v.Slices = c.partition(sv.Live, sv.Tidsets, sv.NumRecords)
	c.mergedSrc, c.mergedDec = sv, &v
	return c.mergedDec
}

// partition splits the live records across the shards and restricts the
// per-item tidsets to each slice. Slices are immutable once returned.
func (c *Collection) partition(live *bitset.Set, tidsets []*bitset.Set, capN int) []plans.ShardSlice {
	k := c.router.Shards()
	sl := make([]plans.ShardSlice, k)
	for s := range sl {
		sl[s].Records = bitset.New(capN)
	}
	live.ForEach(func(r int) bool {
		sl[c.router.Of(r)].Records.Add(r)
		return true
	})
	// Restricting the per-item tidsets to each slice dominates the
	// partition cost and is independent per shard: workers intersect
	// immutable tidsets and write their own slice only.
	pool.For(k, pool.Workers(c.workers), func(s int) {
		sl[s].Records.Optimize()
		items := make([]*bitset.Set, len(tidsets))
		for i, t := range tidsets {
			if t == nil {
				continue
			}
			x := bitset.Intersect(t, sl[s].Records)
			x.Optimize()
			items[i] = x
		}
		sl[s].Items = items
	})
	return sl
}

// ShardStats reports per-shard staleness: live record counts, buffered
// inserts and tombstones routed to each shard, and the shard clocks.
// The totals across shards equal the store's global Staleness counters.
// Every ingest acknowledgement and dataset listing asks, so the buffered
// delta is routed where it lies in the store, never copied out.
func (c *Collection) ShardStats() []ShardStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	baseN := c.idx.Dataset.NumRecords()
	stats := make([]ShardStat, c.router.Shards())
	for s := range stats {
		stats[s] = ShardStat{
			Shard:   s,
			Records: c.frozen.Slices[s].Records.Count(),
			Version: c.versions[s],
		}
	}
	c.store.EachChange(func(id int) {
		s := c.router.Of(id)
		stats[s].Records++
		stats[s].BufferedRows++
	}, func(id int) {
		s := c.router.Of(id)
		stats[s].Tombstones++
		// A deleted buffered row was never counted.
		if id < baseN {
			stats[s].Records--
		}
	})
	return stats
}
