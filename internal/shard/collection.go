package shard

import (
	"sync"

	"colarm/internal/delta"
)

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
	// touches the shard, and restarts at 0 when a rebuild re-labels the
	// fresh index.
	Version uint64 `json:"version"`
}

// Collection labels one engine's records with K hash-routed shards. It
// routes ingest batches into the engine's one delta.Store, ticks the
// clock of every shard a batch touches, and breaks the store's drift
// down per shard; queries never see it. Lock order is Collection.mu,
// then Store.mu (the store calls back out only into ShardStats' routing
// closures, which touch neither lock).
type Collection struct {
	store  *delta.Store
	router *Router
	baseN  int
	base   []int // base records per shard, counted once in New

	mu       sync.Mutex
	appended int      // rows routed so far; derives buffered record ids
	versions []uint64 // per-shard ingest clocks
}

// New labels the baseN records of store's index with k shards.
func New(store *delta.Store, baseN, k int) *Collection {
	r := NewRouter(k)
	c := &Collection{
		store:    store,
		router:   r,
		baseN:    baseN,
		base:     make([]int, r.Shards()),
		versions: make([]uint64, r.Shards()),
	}
	for id := 0; id < baseN; id++ {
		c.base[r.Of(id)]++
	}
	return c
}

// NumShards returns K.
func (c *Collection) NumShards() int { return c.router.Shards() }

// Ingest routes one transaction batch: the store validates and buffers
// it (all-or-nothing), then the clocks of every shard the batch touches
// tick. Inserted rows take ids baseN, baseN+1, ... in arrival order —
// the same ids the store assigns — and the router maps ids to shards,
// so the partition key is the record id itself.
func (c *Collection) Ingest(rows [][]int32, deletes []int) (delta.Staleness, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.store.Ingest(rows, deletes)
	if err != nil {
		return st, err
	}
	touched := make(map[int]bool, len(rows)+len(deletes))
	for i := range rows {
		touched[c.router.Of(c.baseN+c.appended+i)] = true
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

// ShardStats reports per-shard staleness: live record counts, buffered
// inserts and tombstones routed to each shard, and the shard clocks.
// The totals across shards equal the store's global Staleness counters.
// Every ingest acknowledgement and dataset listing asks, so the buffered
// delta is routed where it lies in the store, never copied out.
func (c *Collection) ShardStats() []ShardStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	stats := make([]ShardStat, c.router.Shards())
	for s := range stats {
		stats[s] = ShardStat{Shard: s, Records: c.base[s], Version: c.versions[s]}
	}
	c.store.EachChange(func(id int) {
		s := c.router.Of(id)
		stats[s].Records++
		stats[s].BufferedRows++
	}, func(id int) {
		s := c.router.Of(id)
		stats[s].Tombstones++
		// A deleted buffered row was never counted.
		if id < c.baseN {
			stats[s].Records--
		}
	})
	return stats
}
