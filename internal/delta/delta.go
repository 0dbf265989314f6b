// Package delta implements the live-ingestion subsystem: an
// append-oriented store buffering transactions that arrive after the
// MIP-index build (inserts plus tombstone deletes), the merged execution
// surface that keeps query answers exact while the base index ages, and the
// refresh policy that decides when the delta has grown large enough that
// rebuilding beats building merged views.
//
// # Exactness
//
// The frozen MIP-index cannot answer queries over the merged dataset by
// itself: inserting or deleting records moves the primary-support
// threshold (it is a fraction of the record count), can create closed
// frequent itemsets the index never stored, can drop stored ones below
// the threshold, shifts closure structure, and staleness the bounding
// boxes that Lemma 4.5's contained-box shortcut relies on. No
// per-query patching of base results is sound in general.
//
// The store therefore materializes, lazily and at most once per delta
// version, a merged plans.Surface holding exactly the index state a
// from-scratch rebuild would build:
//
//  1. every per-item base tidset is copied and grown to the merged
//     record-id capacity; each tombstoned or buffered record then
//     clears or sets its bit in the tidsets of its own items (this is
//     the delta-side count pass, amortized over the version);
//  2. CHARM re-mines the closed frequent itemsets over the merged
//     tidsets at the merged primary-support count — the frequent items'
//     tidsets laid out once in one word arena, mined by
//     charm.MineVectors, so no CFI carries a tidset — and the closed
//     IT-tree is rebuilt with the code the offline build uses;
//  3. the MIP bounding boxes are those of the merged tidsets: the
//     frozen box patched by what the delta changed where the frozen
//     index stores the itemset (see mergedBox), probed from scratch
//     with the offline build's code otherwise;
//  4. the boxes are packed into an R-tree by rtree.Bulk at the frozen
//     index's fanout, as the offline build packs them.
//
// Record ids are stable: base records keep ids 0..N-1 (a tombstoned id
// is never reused) and buffered inserts take N, N+1, ... in arrival
// order. Every structure a plan consults — CFIs, supports, closures,
// boxes, the packed R-tree, item tidsets, the raw-value accessor — is
// thus equal in content to the rebuild's, except stored CFI tidsets,
// which no plan reads (Tree.Tids is nil on a merged surface). So all
// six plans return identical rules and take the same path to them:
// SEARCH visits the same nodes and checks the same entries. While
// nothing has been ingested the store hands out the frozen index's own
// surface, so a query resolves its index state the same way at every
// delta version.
//
// # Refresh policy
//
// A query on a merged surface costs what it costs on the rebuilt index,
// so the delta charges queries nothing; what it costs is the view
// build, which grows with the changed rows while a rebuild does not
// (CHARM runs in both). The store recommends a rebuild once the changed
// rows — buffered inserts plus tombstones — reach 1/RebuildDivisor of
// the base records; the serving layer then rebuilds in the background
// and atomically swaps the new engine generation in.
package delta

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/pool"
	"colarm/internal/qerr"
	"colarm/internal/relation"
	"colarm/internal/rtree"
)

// RebuildDivisor sets the refresh policy's threshold: a rebuild is
// recommended once BufferedRows + Tombstones reach 1/RebuildDivisor of
// the base records. Near there the part of a view build that grows with
// the delta catches up with a rebuild (DESIGN §11 has the measurement).
const RebuildDivisor = 20

// Staleness describes how far an engine's base index has drifted from
// the merged dataset. colarm.Staleness embeds it, so these fields and
// tags are the facade's and the wire's.
type Staleness struct {
	// BufferedRows counts records inserted since the index was built
	// (minus any that were deleted again).
	BufferedRows int `json:"bufferedRows"`
	// Tombstones counts records deleted since the index was built
	// (base and buffered).
	Tombstones int `json:"tombstones"`
	// Version increments on every accepted ingest batch; 0 means the
	// index is fresh.
	Version uint64 `json:"version"`
	// RebuildRecommended reports (BufferedRows + Tombstones) ×
	// RebuildDivisor >= the base record count with at least one changed
	// row: merged-view builds now cost about what a rebuild does.
	RebuildRecommended bool `json:"rebuildRecommended"`
}

// Applied describes one accepted ingest batch to apply observers: the
// version-clock interval the batch covers and the value-index tuples of
// every record the batch changed — inserted rows plus the (pre-delete)
// values of deleted rows. A standing query whose focal region contains
// none of these tuples provably kept its exact rule set across the
// interval: rule supports and measures are computed entirely within the
// focal subset, and a batch that neither adds a record to the subset
// nor removes one from it leaves every count the plans consult
// untouched.
type Applied struct {
	// FromVersion is the delta version before the batch applied,
	// ToVersion the version after (ToVersion = FromVersion + 1).
	FromVersion, ToVersion uint64
	// Rows holds the changed tuples (value indices, one per attribute).
	// Deletes of records that were already dead contribute nothing.
	Rows [][]int32
}

// Store buffers post-build transactions for one engine and serves the
// surface queries execute against. All methods are safe for concurrent
// use.
type Store struct {
	mu      sync.Mutex
	idx     *mip.Index
	primary float64

	obsMu     sync.Mutex
	observers map[int]func(Applied)
	nextObs   int

	rows  [][]int32   // buffered inserts (value indices, one per attr)
	dead  []bool      // dead[k]: buffered row k was later deleted
	tombs *bitset.Set // tombstoned base record ids
	ndead int

	version uint64
	frozen  *plans.Surface // the index as built: the surface of version 0
	merged  *plans.Surface // the merged surface of the newest version asked for

	// boxFault, when set, is called before each merged CFI's box. Test
	// hook: tests panic in it.
	boxFault func(id int)
}

// NewStore creates an empty delta store over a freshly built (or
// loaded) index. primary is the index's primary-support fraction.
func NewStore(idx *mip.Index, primary float64) *Store {
	return &Store{
		idx:     idx,
		primary: primary,
		tombs:   bitset.New(idx.Dataset.NumRecords()),
		frozen:  plans.NewSurface(idx),
	}
}

// Observe registers fn to be called after every accepted Ingest batch
// with the interval it covered and the tuples it changed. The callback
// runs synchronously on the ingesting goroutine, after the store's lock
// is released — it must return quickly and must not call back into the
// store or the engine; hand the notice to a worker instead. Under
// concurrent ingestion, callbacks for different batches may arrive out
// of order; the intervals themselves always tile.
// The returned cancel removes the observer.
func (s *Store) Observe(fn func(Applied)) (cancel func()) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if s.observers == nil {
		s.observers = make(map[int]func(Applied))
	}
	id := s.nextObs
	s.nextObs++
	s.observers[id] = fn
	return func() {
		s.obsMu.Lock()
		defer s.obsMu.Unlock()
		delete(s.observers, id)
	}
}

// notifyApplied fans one accepted batch out to the registered apply
// observers (no-op when there are none).
func (s *Store) notifyApplied(ap Applied) {
	s.obsMu.Lock()
	fns := make([]func(Applied), 0, len(s.observers))
	for _, fn := range s.observers {
		fns = append(fns, fn)
	}
	s.obsMu.Unlock()
	for _, fn := range fns {
		fn(ap)
	}
}

// Ingest appends a batch of inserts and applies a batch of deletes,
// atomically bumping the delta version. Rows carry value indices (the
// caller resolves labels against the frozen vocabulary); deletes name
// record ids in the current id space. The batch is validated before any
// mutation, so a rejected batch leaves the store unchanged. Accepted
// batches are reported to the registered apply observers.
func (s *Store) Ingest(rows [][]int32, deletes []int) (Staleness, error) {
	s.mu.Lock()
	d := s.idx.Dataset
	baseN, attrs := d.NumRecords(), d.NumAttrs()
	for _, row := range rows {
		if len(row) != attrs {
			defer s.mu.Unlock()
			return s.stalenessLocked(), fmt.Errorf("delta: row has %d values, dataset has %d attributes", len(row), attrs)
		}
		for a, v := range row {
			if int(v) < 0 || int(v) >= s.idx.Cards[a] {
				defer s.mu.Unlock()
				return s.stalenessLocked(), fmt.Errorf("delta: %w: attribute %q value index %d outside [0,%d)",
					qerr.ErrUnknownValue, d.Attrs[a].Name, v, s.idx.Cards[a])
			}
		}
	}
	limit := baseN + len(s.rows) + len(rows)
	for _, id := range deletes {
		if id < 0 || id >= limit {
			defer s.mu.Unlock()
			return s.stalenessLocked(), fmt.Errorf("delta: %w: %d outside [0,%d)", qerr.ErrBadRecordID, id, limit)
		}
	}
	ap := Applied{FromVersion: s.version, ToVersion: s.version + 1}
	for _, row := range rows {
		cp := make([]int32, attrs)
		copy(cp, row)
		s.rows = append(s.rows, cp)
		s.dead = append(s.dead, false)
		ap.Rows = append(ap.Rows, cp)
	}
	for _, id := range deletes {
		if id < baseN {
			if !s.tombs.Contains(id) {
				s.tombs.Add(id)
				ap.Rows = append(ap.Rows, baseRow(d, id))
			}
		} else if k := id - baseN; !s.dead[k] {
			s.dead[k] = true
			s.ndead++
			ap.Rows = append(ap.Rows, s.rows[k])
		}
	}
	s.version++
	st := s.stalenessLocked()
	s.mu.Unlock()
	s.notifyApplied(ap)
	return st, nil
}

// baseRow materializes one base record's value-index tuple.
func baseRow(d *relation.Dataset, r int) []int32 {
	row := make([]int32, d.NumAttrs())
	for a := range row {
		row[a] = int32(d.Value(r, a))
	}
	return row
}

// Staleness reports the store's current drift.
func (s *Store) Staleness() Staleness {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalenessLocked()
}

func (s *Store) stalenessLocked() Staleness {
	st := Staleness{
		BufferedRows: len(s.rows) - s.ndead,
		Tombstones:   s.tombs.Count() + s.ndead,
		Version:      s.version,
	}
	changed := st.BufferedRows + st.Tombstones
	st.RebuildRecommended = changed > 0 && changed*RebuildDivisor >= s.idx.Dataset.NumRecords()
	return st
}

// Empty reports whether the store holds no buffered changes.
func (s *Store) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version == 0
}

// Surface returns the index state of the current delta version: the
// frozen index's own surface while nothing has been ingested, and from
// version 1 on the merged surface a rebuild over the merged data would
// present, packed R-tree included (see the package comment), built
// lazily, at most once per version. A Surface is immutable once
// returned and carries the version it presents, so a caller that
// resolves one per request reads a single consistent version throughout
// whatever is ingested meanwhile. A build that fails (a panic in its box
// fan-out comes back as a *pool.PanicError) is not kept: the next call
// builds the version again.
func (s *Store) Surface() (*plans.Surface, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version == 0 {
		return s.frozen, nil
	}
	if s.merged == nil || s.merged.Version != s.version {
		m, err := s.buildMergedLocked()
		if err != nil {
			return nil, err
		}
		s.merged = m
	}
	return s.merged, nil
}

// changedRow is one record the delta changed relative to the frozen
// index: its id in the merged id space and its value-index tuple.
type changedRow struct {
	id  int
	row []int32
}

// buildMergedLocked materializes the merged surface. See the package
// comment for the exactness argument.
func (s *Store) buildMergedLocked() (*plans.Surface, error) {
	d, sp := s.idx.Dataset, s.idx.Space
	baseN := d.NumRecords()
	capN := baseN + len(s.rows)

	// What the delta holds: tombstoned base records and live buffered
	// rows. Apart from CHARM and the copy of the base tidsets, everything
	// below costs in proportion to these two lists.
	var gone, added []changedRow
	s.tombs.ForEach(func(r int) bool {
		gone = append(gone, changedRow{r, baseRow(d, r)})
		return true
	})
	for k, row := range s.rows {
		if !s.dead[k] {
			added = append(added, changedRow{baseN + k, row})
		}
	}

	live := bitset.New(capN)
	live.Fill()
	for _, g := range gone {
		live.Remove(g.id)
	}
	for k, dead := range s.dead {
		if dead {
			live.Remove(baseN + k)
		}
	}

	// Merged per-item tidsets: the delta-side count pass, amortized
	// over the delta version. A changed record flips its bit in the
	// tidsets of its own items only; the rest are the base tidsets grown
	// to the merged capacity, in the encoding the build left them in.
	tids := make([]*bitset.Set, sp.NumItems())
	for i, t := range s.idx.Tidsets {
		tids[i] = t.CloneGrown(capN)
	}
	touched := make([]bool, len(tids))
	for _, g := range gone {
		for a, v := range g.row {
			it := sp.ItemOf(a, int(v))
			tids[it].Remove(g.id)
			touched[it] = true
		}
	}
	for _, ad := range added {
		for a, v := range ad.row {
			it := sp.ItemOf(a, int(v))
			tids[it].Add(ad.id)
			touched[it] = true
		}
	}
	for it, t := range tids {
		if touched[it] {
			// Removals and appends fragment the cloned containers;
			// re-pack before the surface serves reads.
			t.Optimize()
		}
	}

	// Re-mine at the merged primary-support count. A rebuild over the
	// merged data would do exactly this, so the CFIs, supports and
	// closure structure match it by construction.
	minCount := charm.CountFor(s.primary, live.Count())
	if minCount < 1 {
		minCount = 1
	}
	// CHARM mines the frequent items' merged tidsets laid out once, in
	// one word arena. The view's CFIs carry no tidset: no plan reads one,
	// and mergedBox forms a CFI's word vector from the arena (every item
	// of a CFI is frequent) only when it has to probe.
	nw := (capN + 63) / 64
	var items []itemset.Item
	for it, t := range tids {
		if t.Count() >= minCount {
			items = append(items, itemset.Item(it))
		}
	}
	arena := make([]uint64, len(items)*nw)
	vecs := make([][]uint64, len(items))
	for k, it := range items {
		vecs[k] = arena[k*nw : (k+1)*nw : (k+1)*nw]
		bitset.CopyWords(vecs[k], tids[it])
	}
	res, err := charm.MineVectors(context.Background(), items, vecs, capN, minCount)
	if err != nil {
		return nil, fmt.Errorf("delta: merged mining: %w", err)
	}
	tree := ittree.Build(res, sp.NumItems())
	boxes := make([]itemset.Box, len(res.Closed))
	entries := make([]rtree.Entry, len(res.Closed))
	closed := res.Closed
	// Boxes are independent reads into pre-indexed slots, so the surface
	// is the same at every worker count.
	if _, err := pool.Run(context.Background(), len(closed), func(id int) {
		if s.boxFault != nil {
			s.boxFault(id)
		}
		boxes[id] = s.mergedBox(closed[id], tids, items, vecs, gone, added)
		entries[id] = rtree.Entry{Box: boxes[id], ID: int32(id), Support: int32(closed[id].Support)}
	}); err != nil {
		return nil, err
	}
	// Pack the boxes as the offline build does, at the frozen index's
	// fanout, so SEARCH walks the tree a rebuild would have.
	rt, err := rtree.Bulk(entries, sp.NumAttrs(), s.idx.RTree.Fanout())
	if err != nil {
		return nil, fmt.Errorf("delta: packing merged boxes: %w", err)
	}

	rows := s.rows // append-only; elements are never mutated
	return &plans.Surface{
		Tree:         tree,
		Boxes:        boxes,
		Tidsets:      tids,
		RTree:        rt,
		Levels:       rt.Stats(s.idx.Cards),
		PrimaryCount: minCount,
		NumRecords:   capN,
		Live:         live,
		Value: func(r, a int) int {
			if r < baseN {
				return d.Value(r, a)
			}
			return int(rows[r-baseN][a])
		},
		Version: s.version,
	}, nil
}

// mergedBox returns the bounding box of merged CFI c over the merged
// tidsets — the box mip.BoundingBox computes from c's merged tidset — at
// a cost the delta sets when the frozen index already stores c's
// itemset.
//
// The box of an itemset is, per unconstrained attribute, the [min,max]
// value over the records containing it, and the merged supporters are
// the frozen supporters minus the tombstoned ones plus the live
// buffered rows containing the itemset. So the frozen box is patched:
// a bound can only move inwards if a tombstoned supporter sat exactly
// on it (otherwise a surviving supporter still attains it), and then
// that one side of that one attribute is re-probed against the merged
// tidsets from the old bound on; afterwards every buffered supporter
// extends the box. An itemset the frozen index does not store has no box
// to patch and is probed from scratch. c carries no tidset (the view
// mines without them): only these two probes need its supporters, and
// read them as the AND of its items' word vectors from the mining arena
// (vectorOf): vecs[k] is the merged tidset of frequent item items[k].
func (s *Store) mergedBox(c *charm.ClosedSet, tids []*bitset.Set, items []itemset.Item, vecs [][]uint64, gone, added []changedRow) itemset.Box {
	sp, cards := s.idx.Space, s.idx.Cards
	fid, ok := s.idx.ITTree.LookupID(c.Items)
	if !ok {
		return mip.BoundingBox(sp, cards, tids, c.Items, vectorOf(items, vecs, c.Items))
	}
	box := s.idx.Boxes[fid].Clone()
	const fixed, loLost, hiLost = 1, 2, 4
	flags := make([]uint8, sp.NumAttrs())
	// A changed row supports c exactly when it holds every item of c:
	// each item's value on the item's attribute.
	attrs, vals := make([]int, len(c.Items)), make([]int32, len(c.Items))
	for k, it := range c.Items {
		attrs[k], vals[k] = sp.AttrOf(it), int32(sp.ValueOf(it))
		flags[attrs[k]] = fixed // a point interval, whatever the records
	}
	holdsAll := func(row []int32) bool {
		for k, a := range attrs {
			if row[a] != vals[k] {
				return false
			}
		}
		return true
	}
	for _, g := range gone {
		// A tombstoned base row supported c in the frozen index exactly
		// when it holds every item of c.
		if !holdsAll(g.row) {
			continue
		}
		for a, v := range g.row {
			if flags[a] == fixed {
				continue
			}
			if v == box.Lo[a] {
				flags[a] |= loLost
			}
			if v == box.Hi[a] {
				flags[a] |= hiLost
			}
		}
	}
	// probe walks attribute a's values from v in direction step to the
	// first one a merged supporter holds. When none lies on or beyond
	// the old bound it returns the empty interval's bound, and a
	// buffered supporter below sets it: the itemset has support >= 1.
	var vec []uint64 // c's merged supporters, formed by the first probe
	probe := func(a, v, step int, none int32) int32 {
		if vec == nil {
			vec = vectorOf(items, vecs, c.Items)
		}
		if v, ok := mip.Reach(sp, cards, tids, a, v, step, vec); ok {
			return int32(v)
		}
		return none
	}
	for a, f := range flags {
		if f == fixed {
			continue
		}
		if f&loLost != 0 {
			box.Lo[a] = probe(a, int(box.Lo[a]), +1, 1<<30)
		}
		if f&hiLost != 0 {
			box.Hi[a] = probe(a, int(box.Hi[a]), -1, -1)
		}
	}
	for _, ad := range added {
		if !holdsAll(ad.row) {
			continue
		}
		for a, v := range ad.row {
			box.Lo[a] = min(box.Lo[a], v)
			box.Hi[a] = max(box.Hi[a], v)
		}
	}
	return box
}

// vectorOf returns the merged supporters of itemset x as a word vector:
// the AND of its items' vectors, vecs[k] being that of items[k]
// (ascending, and holding every item of a CFI); for one item, that
// item's own (read-only) vector.
func vectorOf(items []itemset.Item, vecs [][]uint64, x itemset.Set) []uint64 {
	vec := func(it itemset.Item) []uint64 {
		k, _ := slices.BinarySearch(items, it)
		return vecs[k]
	}
	if len(x) == 1 {
		return vec(x[0])
	}
	v := slices.Clone(vec(x[0]))
	for _, it := range x[1:] {
		for w, y := range vec(it) {
			v[w] &= y
		}
	}
	return v
}

// MergedDataset materializes the merged relation — base records minus
// tombstones plus buffered inserts — for a full rebuild. Value
// dictionaries are seeded from the frozen vocabulary in order, so the
// rebuilt dataset keeps the same item space (ingest cannot introduce
// new values; that always requires an offline rebuild from raw data).
func (s *Store) MergedDataset() (*relation.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.idx.Dataset
	attrs := d.NumAttrs()
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
	idx := make([]int, attrs)
	for r := 0; r < d.NumRecords(); r++ {
		if s.tombs.Contains(r) {
			continue
		}
		for a := 0; a < attrs; a++ {
			idx[a] = d.Value(r, a)
		}
		if err := b.AddRecordIdx(idx...); err != nil {
			return nil, err
		}
	}
	for k, row := range s.rows {
		if s.dead[k] {
			continue
		}
		for a := 0; a < attrs; a++ {
			idx[a] = int(row[a])
		}
		if err := b.AddRecordIdx(idx...); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Snapshot returns deep copies of the buffered rows and the tombstoned
// record ids, for persistence. Restoring them through Ingest on a
// freshly loaded engine reproduces the store's state exactly.
func (s *Store) Snapshot() (rows [][]int32, deletes []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows = make([][]int32, 0, len(s.rows))
	for _, row := range s.rows {
		cp := make([]int32, len(row))
		copy(cp, row)
		rows = append(rows, cp)
	}
	deletes = s.tombs.IDs()
	baseN := s.idx.Dataset.NumRecords()
	for k, gone := range s.dead {
		if gone {
			deletes = append(deletes, baseN+k)
		}
	}
	return rows, deletes
}
