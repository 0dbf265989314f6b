package shard

import (
	"sync"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/cost"
	"colarm/internal/delta"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/pool"
	"colarm/internal/relation"
)

// CatalogMode selects how a sharded engine re-establishes the merged
// closed-itemset catalog when the delta is live (and at consolidation).
type CatalogMode int

const (
	// CatalogAuto scatters on small item spaces and mines globally on
	// large ones (threshold-1 per-shard enumeration can blow up there).
	CatalogAuto CatalogMode = iota
	// CatalogScatter always uses per-shard mining + closure merge.
	CatalogScatter
	// CatalogGlobal always mines the merged tidsets globally.
	CatalogGlobal
)

// Config configures a Collection.
type Config struct {
	// Shards is K; values < 1 are clamped to 1.
	Shards int
	// Catalog selects the closure-merge policy (default CatalogAuto).
	Catalog CatalogMode
	// Primary is the engine's primary-support fraction.
	Primary float64
	// Units are the engine's calibrated cost units (delta refresh policy).
	Units cost.Units
	// MIP carries the index build options used at consolidation (fanout,
	// packing).
	MIP mip.Options
	// Workers bounds the fan-out of the collection's parallel sections —
	// partition restriction, per-shard mining, global box computation: 0 means one worker per CPU, 1 forces serial. Every
	// parallel section writes pre-indexed slots, so results are
	// worker-count-invariant.
	Workers int
}

// ShardStat is one shard's slice of the engine's staleness surface. The
// facade exports it as colarm.ShardStaleness, and the first five fields
// are what /v1/ingest, /v1/datasets and /v1/datasets/{name} serve per
// shard, under these tags, so operators see which partitions are
// drifting; the catalog figures stay in process (the
// colarm_shard_index_* metrics report them).
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
	// touches the shard, so an untouched shard keeps serving its cached
	// per-shard mining across consolidations of its siblings.
	Version uint64 `json:"version"`
	// IndexedCFIs counts the local CFIs of the shard's cached catalog;
	// 0 when the shard has never been mined (no scatter-mode surface or
	// consolidation touched it yet).
	IndexedCFIs int `json:"-"`
	// IndexBuildNanos is the wall-clock cost of the shard's last
	// threshold-1 mining.
	IndexBuildNanos int64 `json:"-"`
}

// Collection partitions one engine's records into K hash-routed shards.
// It wraps a single delta.Store — the store's validation, merged-surface
// construction and refresh policy are partition-independent, so the
// collection only adds the partition: the slices it decorates the
// store's surfaces with, per-shard version clocks, the scatter catalog
// (per-shard mining + closure merge), and ghost-preserving
// consolidation. Lock order is Collection.mu, then Store.mu (the store
// calls back out only into ShardStats' routing closures, which touch
// neither lock).
type Collection struct {
	idx     *mip.Index
	store   *delta.Store
	router  *Router
	primary float64
	catalog CatalogMode
	mipOpts mip.Options
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

	// indexes caches each shard's threshold-1 catalog, keyed by the
	// shard's version clock and the frequent-item universe it was mined
	// over. A clean shard (version unchanged) reuses its mining across
	// sibling ingests and consolidations — the "rebuild one shard while
	// the others serve" half of the sharded refresh story.
	indexes []*ShardIndex

	// onRebuild, when set, fires under the collection lock after a
	// shard is (re)mined, with the shard number and the mining's
	// wall-clock nanoseconds. The serving layer wires it to
	// the /metrics rebuild counters and build-duration histogram.
	onRebuild func(shard int, buildNanos int64)
}

// New builds a collection over a freshly built or loaded index,
// partitioning its live records by hash.
func New(idx *mip.Index, cfg Config) *Collection {
	r := NewRouter(cfg.Shards)
	c := &Collection{
		idx:      idx,
		store:    delta.NewStore(idx, cfg.Primary, cfg.Units),
		router:   r,
		primary:  cfg.Primary,
		catalog:  cfg.Catalog,
		mipOpts:  cfg.MIP,
		workers:  cfg.Workers,
		versions: make([]uint64, r.Shards()),
		indexes:  make([]*ShardIndex, r.Shards()),
	}
	if c.mipOpts.Workers == 0 {
		c.mipOpts.Workers = cfg.Workers
	}
	c.store.SetWorkers(cfg.Workers)
	n := idx.Dataset.NumRecords()
	live := idx.Live
	if live == nil {
		live = bitset.New(n)
		live.Fill()
	}
	frozen := *c.store.Surface()
	frozen.Slices = c.partition(live, idx.Tidsets, n)
	c.frozen = &frozen
	return c
}

// NumShards returns K.
func (c *Collection) NumShards() int { return c.router.Shards() }

// Router returns the record-to-shard router.
func (c *Collection) Router() *Router { return c.router }

// Store exposes the wrapped delta store; the engine's staleness,
// refresh-policy and snapshot surfaces read through it unchanged.
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
// (and caches) one surface per delta version; the decoration — merged
// slices, and in scatter mode the closure-merged catalog — is cached
// alongside it, so concurrent queries share one immutable surface per
// version.
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
	if c.scatterCatalog() {
		// Re-establish the merged catalog by cross-shard closure merge
		// instead of the store's global re-mine: per-shard threshold-1
		// mining (cached while a shard's clock is unchanged), then
		// MergeClosed. The result is byte-identical to the global mine
		// (see merge.go), so replacing Tree and Boxes changes nothing a
		// plan can observe.
		minCount := charm.CountFor(c.primary, sv.Live.Count())
		if minCount < 1 {
			minCount = 1
		}
		res := c.mergedCatalogLocked(v.Slices, sv.Tidsets, sv.NumRecords, minCount)
		v.Tree = ittree.Build(res, c.idx.Space.NumItems())
		v.Boxes = make([]itemset.Box, len(res.Closed))
		closed := res.Closed
		// Merged boxes are independent reads into pre-indexed slots.
		pool.For(len(closed), pool.Workers(c.workers), func(id int) {
			v.Boxes[id] = mip.BoundingBox(c.idx.Space, c.idx.Cards, sv.Tidsets, closed[id])
		})
	}
	c.mergedSrc, c.mergedDec = sv, &v
	return c.mergedDec
}

// scatterCatalog reports whether the closure-merge catalog path is
// active: always under CatalogScatter, never under CatalogGlobal, and
// under CatalogAuto only on small item spaces, where the per-shard
// threshold-1 enumeration is safely bounded.
func (c *Collection) scatterCatalog() bool {
	switch c.catalog {
	case CatalogScatter:
		return true
	case CatalogGlobal:
		return false
	}
	sp := c.idx.Space
	return sp.NumAttrs() <= 8 && sp.NumItems() <= 48
}

// mergedCatalogLocked computes the merged closed-itemset catalog via
// the cross-shard closure merge. Per-shard minings are cached on the
// shard clocks: only shards an ingest touched since the last call are
// re-mined, in parallel through the worker pool.
func (c *Collection) mergedCatalogLocked(slices []plans.ShardSlice, tidsets []*bitset.Set, capN, minCount int) *charm.Result {
	// Universe of globally frequent items; per-shard mining restricts
	// to it (nil tidsets are skipped by the miner).
	var u itemset.Set
	for it, t := range tidsets {
		if t != nil && t.Count() >= minCount {
			u = append(u, itemset.Item(it))
		}
	}
	ukey := u.Key()
	inU := make([]bool, len(tidsets))
	for _, it := range u {
		inU[it] = true
	}
	per := make([]*charm.Result, len(slices))
	rebuilt := make([]*ShardIndex, len(slices)) // nil where the cache held
	pool.For(len(slices), pool.Workers(c.workers), func(s int) {
		if si := c.indexes[s]; si != nil && si.Version == c.versions[s] && si.UKey == ukey {
			per[s] = si.Mine
			return
		}
		si := buildShardIndex(s, c.versions[s], ukey, slices[s], inU, capN)
		rebuilt[s] = si
		per[s] = si.Mine
	})
	// Publish the re-mined catalogs and fire the metrics hook serially,
	// under the already-held collection lock.
	for s, si := range rebuilt {
		if si == nil {
			continue
		}
		c.indexes[s] = si
		if c.onRebuild != nil {
			c.onRebuild(s, si.BuildNanos)
		}
	}
	return MergeClosed(per, tidsets, capN, minCount)
}

// SetRebuildHook installs fn, fired with the shard number and mining
// duration whenever a shard's catalog is (re)mined. Install
// before the first ingest; the hook runs under the collection lock and
// must not call back into the collection.
func (c *Collection) SetRebuildHook(fn func(shard int, buildNanos int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onRebuild = fn
}

// Indexes returns the per-shard catalogs currently cached (nil entries
// for shards never mined). The slice is a copy; the entries themselves
// are immutable once published.
func (c *Collection) Indexes() []*ShardIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ShardIndex, len(c.indexes))
	copy(out, c.indexes)
	return out
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
		if si := c.indexes[s]; si != nil {
			stats[s].IndexedCFIs = len(si.Mine.Closed)
			stats[s].IndexBuildNanos = si.BuildNanos
		}
	}
	c.store.EachChange(func(id int) {
		s := c.router.Of(id)
		stats[s].Records++
		stats[s].BufferedRows++
	}, func(id int) {
		s := c.router.Of(id)
		stats[s].Tombstones++
		// A deleted buffered row was never counted; a ghost of an
		// earlier consolidation is outside its shard's frozen slice.
		if id < baseN && c.frozen.Slices[s].Records.Contains(id) {
			stats[s].Records--
		}
	})
	return stats
}

// Consolidate folds the buffered delta into a fresh ghost-preserving
// index: every record — live, tombstoned, ghost — keeps its id (hash
// routing must stay stable), deleted rows become ghosts outside the new
// index's Live mask, and the catalog is re-mined over the live records
// only (via the closure merge when the scatter catalog is active, so
// clean shards reuse their cached minings). The returned index answers
// byte-identically to a compacted monolithic rebuild over the same live
// data — identical CFIs, supports, boxes and R-tree — differing only in
// the record-id space. The caller swaps it in as a new engine
// generation; this collection keeps serving unchanged until then.
func (c *Collection) Consolidate() (*mip.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, deletes := c.store.Snapshot()
	d := c.idx.Dataset
	attrs := d.NumAttrs()
	baseN := d.NumRecords()
	capN := baseN + len(rows)

	names := make([]string, attrs)
	for a := 0; a < attrs; a++ {
		names[a] = d.Attrs[a].Name
	}
	b := relation.NewBuilder(d.Name, names...)
	for a := 0; a < attrs; a++ {
		for _, label := range d.Attrs[a].Values {
			b.AddValue(a, label)
		}
	}
	vi := make([]int, attrs)
	for r := 0; r < baseN; r++ {
		for a := 0; a < attrs; a++ {
			vi[a] = d.Value(r, a)
		}
		if err := b.AddRecordIdx(vi...); err != nil {
			return nil, err
		}
	}
	for _, row := range rows {
		for a := 0; a < attrs; a++ {
			vi[a] = int(row[a])
		}
		if err := b.AddRecordIdx(vi...); err != nil {
			return nil, err
		}
	}
	nd := b.Build()

	live := bitset.New(capN)
	live.Fill()
	if gl := c.idx.Live; gl != nil {
		for r := 0; r < baseN; r++ {
			if !gl.Contains(r) {
				live.Remove(r)
			}
		}
	}
	for _, id := range deletes {
		live.Remove(id)
	}

	sp := itemset.NewSpace(nd)
	tids := itemset.ItemTidsets(nd, sp)
	for _, t := range tids {
		t.And(live)
		t.Optimize()
	}
	minCount := charm.CountFor(c.primary, live.Count())
	if minCount < 1 {
		minCount = 1
	}
	var res *charm.Result
	if c.scatterCatalog() {
		res = c.mergedCatalogLocked(c.partition(live, tids, capN), tids, capN, minCount)
	} else {
		var err error
		res, err = charm.MineTidsets(tids, capN, minCount)
		if err != nil {
			return nil, err
		}
	}
	idx, err := mip.Assemble(nd, sp, tids, res, minCount, c.mipOpts)
	if err != nil {
		return nil, err
	}
	if live.Count() < capN {
		idx.Live = live
	}
	return idx, nil
}
