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
//     tidsets laid out in one word arena (charm.Frequent) and mined by
//     charm.MineVectors, as the offline build mines its own;
//  3. the offline build's pipeline, mip.Assemble, builds the closed
//     IT-tree, the MIP bounding boxes and the R-tree packed at the
//     frozen index's fanout. Only the box function differs: a box is
//     the frozen one patched by what the delta changed where the frozen
//     index stores the itemset (see mergedBox), probed from scratch
//     with the offline build's code otherwise.
//
// Record ids are stable: base records keep ids 0..N-1 (a tombstoned id
// is never reused) and buffered inserts take N, N+1, ... in arrival
// order. Every structure a plan consults — CFIs, supports, closures,
// boxes, the packed R-tree, item tidsets, the raw-value accessor — is
// thus equal in content to the rebuild's, except stored CFI tidsets,
// which no plan reads: the offline build's box function stores them and
// the view passes mip.Assemble none, so Tree.Tids is nil on a merged
// surface. So all six plans return identical rules and take the same
// path to them: SEARCH visits the same nodes and checks the same
// entries. While nothing has been ingested the store hands out the
// frozen index's own surface, so a query resolves its index state the
// same way at every delta version.
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
	"sync"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/qerr"
	"colarm/internal/relation"
)

// RebuildDivisor sets the refresh policy's threshold: a rebuild is
// recommended once BufferedRows + Tombstones reach 1/RebuildDivisor of
// the base records. Near there the part of a view build that grows with
// the delta catches up with a rebuild (DESIGN §7 has the measurement).
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
	// The view's CFIs carry no tidset: no plan reads one, and mergedBox
	// ANDs a CFI's supporters from the mining arena only to probe. The
	// frozen index's fanout makes SEARCH walk the tree a rebuild would.
	items, vecs, err := charm.Frequent(tids, capN, minCount)
	if err != nil {
		return nil, fmt.Errorf("delta: merged mining: %w", err)
	}
	res, err := charm.MineVectors(context.Background(), items, vecs, capN, minCount, nil)
	if err != nil {
		return nil, fmt.Errorf("delta: merged mining: %w", err)
	}
	tree, rt, err := mip.Assemble(res, nil, sp, items, vecs, s.idx.RTree.Fanout(), func(p *mip.Probe) {
		if s.boxFault != nil {
			s.boxFault(p.ID)
		}
		s.mergedBox(p, tids, gone, added)
	})
	if err != nil {
		return nil, err
	}

	rows := s.rows // append-only; elements are never mutated
	return &plans.Surface{
		Tree:         tree,
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

// mergedBox writes the bounding box of merged CFI p over the merged
// tidsets — the box mip.BoundingBox computes from p's merged supporters
// — at a cost the delta sets when the frozen index already stores p's
// itemset c.
//
// The box of an itemset is, per unconstrained attribute, the [min,max]
// value over the records containing it, and the merged supporters are
// the frozen supporters minus the tombstoned ones plus the live
// buffered rows containing the itemset. So the frozen box is patched:
// a bound can only move inwards if a tombstoned supporter sat exactly
// on it (otherwise a surviving supporter still attains it), and then
// that one side of that one attribute is re-probed against the merged
// tidsets from the old bound on; afterwards every buffered supporter
// extends the box. The box's own slot marks a lost side until it is
// re-probed; on an attribute of c every merged supporter holds c's
// value, so the re-probe returns it. An itemset the frozen index does
// not store has no box to patch and is probed from scratch. Only these
// two probes read p.Supporters.
func (s *Store) mergedBox(p *mip.Probe, tids []*bitset.Set, gone, added []changedRow) {
	sp, cards, c := s.idx.Space, s.idx.Cards, p.Items
	fid, ok := s.idx.ITTree.LookupID(c)
	if !ok {
		mip.BoundingBox(sp, cards, tids, c, p.Supporters(), p.Lo, p.Hi)
		return
	}
	frozen := s.idx.RTree.Box(fid)
	copy(p.Lo, frozen.Lo)
	copy(p.Hi, frozen.Hi)
	const loLost, hiLost = 1 << 30, -1 // a lost bound, until re-probed
	// A changed row supports c, tombstoned in the frozen index and
	// buffered in the merged data, exactly when it holds every item.
	holdsAll := func(row []int32) bool {
		for _, it := range c {
			if a := sp.AttrOf(it); sp.ItemOf(a, int(row[a])) != it {
				return false
			}
		}
		return true
	}
	for _, g := range gone {
		if !holdsAll(g.row) {
			continue
		}
		for a, v := range g.row {
			if v == frozen.Lo[a] {
				p.Lo[a] = loLost
			}
			if v == frozen.Hi[a] {
				p.Hi[a] = hiLost
			}
		}
	}
	// A lost side is re-probed from its frozen bound inwards. When no
	// merged supporter lies on or beyond the bound, the side stays lost
	// — the empty interval's bound — and a buffered supporter below sets
	// it: the itemset has support >= 1.
	for a := range p.Lo {
		if p.Lo[a] == loLost {
			if v, ok := mip.Reach(sp, cards, tids, a, int(frozen.Lo[a]), +1, p.Supporters()); ok {
				p.Lo[a] = int32(v)
			}
		}
		if p.Hi[a] == hiLost {
			if v, ok := mip.Reach(sp, cards, tids, a, int(frozen.Hi[a]), -1, p.Supporters()); ok {
				p.Hi[a] = int32(v)
			}
		}
	}
	for _, ad := range added {
		if !holdsAll(ad.row) {
			continue
		}
		for a, v := range ad.row {
			p.Lo[a] = min(p.Lo[a], v)
			p.Hi[a] = max(p.Hi[a], v)
		}
	}
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
