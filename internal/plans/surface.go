package plans

import (
	"slices"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/rtree"
)

// Surface is the index state one query reads: the only way a plan or the
// applicability gate sees the MIP-index. Both physical sources yield the
// same shape — the frozen index (NewSurface, once at assembly) and the
// delta store's merged view of one delta version (delta.Store.Surface)
// — so the operators have one path each.
//
// Whatever built it, a Surface presents exactly what a from-scratch
// build over its records would: Tree holds their closed frequent
// itemsets at PrimaryCount with their supports (and, on the frozen
// index only, their tidsets, which no plan reads), Boxes the
// MIP bounding boxes over the same records (so Lemma 4.5's contained-box
// shortcut stays sound), RTree those boxes packed, Tidsets the per-item
// tidsets covering live records only. That is why all six plans return
// identical rules over a merged surface and over a rebuild, with
// identical operator counters.
//
// A Surface is immutable. The engine resolves one per request and hands
// it, with the focal subset computed over it (Focal), to the gate and to
// the executor; concurrent queries share it freely.
type Surface struct {
	// Tree is the closed IT-tree over the surface's CFIs.
	Tree *ittree.Tree
	// Boxes[i] is the bounding box of CFI i (Tree ids).
	Boxes []itemset.Box
	// Tidsets maps each item to the live records containing it.
	Tidsets []*bitset.Set
	// RTree is the packed R-tree over Boxes with the CFIs' supports, the
	// tree (SUPPORTED-)SEARCH walks.
	RTree *rtree.Tree
	// Levels are RTree's per-level statistics (paper Table 3's N_j and
	// DP_{j,i}avg plus support distributions), the traversal statistics
	// the cost model prices SEARCH with.
	Levels []rtree.LevelStats
	// PrimaryCount is the support count the CFIs were mined at — the
	// surface's applicability bound (see Focal.Applicable).
	PrimaryCount int
	// NumRecords is the record-id capacity every tidset of the surface
	// shares: base records (deleted ones included, ids are never reused)
	// plus buffered rows.
	NumRecords int
	// Live flags the record ids that exist on a merged surface, whose
	// tombstoned ids stay allocated; nil means every id does, as on a
	// frozen index. AND-ing it into a region bitmap keeps deleted rows
	// out of unrestricted dimensions.
	Live *bitset.Set
	// Value returns the value index of record r at attribute a, for
	// every id below NumRecords.
	Value func(r, a int) int
	// Version is the delta version the surface presents: 0 for a frozen
	// index nothing was ingested over.
	Version uint64
}

// NewSurface presents a frozen index as a Surface at delta version 0.
func NewSurface(idx *mip.Index) *Surface {
	return &Surface{
		Tree:         idx.ITTree,
		Boxes:        idx.Boxes,
		Tidsets:      idx.Tidsets,
		RTree:        idx.RTree,
		Levels:       idx.RTree.Stats(idx.Cards),
		PrimaryCount: idx.PrimaryCount,
		NumRecords:   idx.Dataset.NumRecords(),
		Value:        idx.Dataset.Value,
	}
}

// Focal is the focal subset D^Q of one query over one surface, computed
// once per request by Executor.Focus and handed to the applicability
// gate, the cost model and every plan the request goes on to run.
//
// It also owns D^Q's vertical layout: one rank-space vector per item
// (bitset.RankAnd, ⌈|D^Q|/64⌉ words) with the item's local count
// |D^Q ∩ t(i)| beside it, built on the item's first use and kept for the
// rest of the request. Every count inside D^Q reads it — the optimizer's
// MIP sample (Count, Reaches), ELIMINATE's item bound and checks,
// VERIFY's closure misses, ARM's SELECT, CHARM and rule-generation
// oracle — so a vector the sample built is the one the chosen plan
// reads. Only serial code grows the layout; the operators' parallel
// sections only read vectors built before they fan out. A Focal is
// therefore used by one request at a time.
type Focal struct {
	// Surface is the surface the subset was selected from; a plan given
	// this Focal executes against it.
	Surface *Surface
	// DQ is the focal subset's record bitmap.
	DQ *bitset.Set
	// Size is |D^Q| and MinCount the query's minsupport as a record count
	// within it — the localized threshold.
	Size, MinCount int

	vecs localVecs
}

// Applicable reports whether the surface's prestored CFIs can answer the
// query completely: the localized support-count threshold must reach the
// count the CFIs were mined at. Below that bound an itemset can clear
// the query threshold inside D^Q while staying infrequent at the primary
// support globally, so no CFI records it and only ARM — mining the focal
// subset from scratch — returns the full localized answer. The optimizer
// consults this before honoring its argmin.
func (f *Focal) Applicable() bool { return f.MinCount >= f.Surface.PrimaryCount }

// Focus selects the focal subset of q over s: SELECT in its bitmap form.
// q must have passed Validate.
func (ex *Executor) Focus(s *Surface, q *Query) *Focal {
	f := &Focal{Surface: s}
	f.DQ = itemset.RegionTidset(q.Region, ex.Space, s.Tidsets, s.NumRecords)
	if s.Live != nil {
		// Unrestricted dimensions contribute a full bitmap; intersect
		// with the live set so deleted records stay out of D^Q.
		f.DQ.And(s.Live)
	}
	f.Size = f.DQ.Count()
	f.MinCount = charm.CountFor(q.MinSupport, f.Size)
	return f
}

// vector returns item it's local count |D^Q ∩ t(it)|, building its
// vector on the first call. It grows the layout, so only serial code
// calls it.
func (f *Focal) vector(it itemset.Item) int {
	v := &f.vecs
	if v.slot == nil {
		v.nw = (f.Size + 63) / 64
		v.slot = make([]vecSlot, len(f.Surface.Tidsets))
		for i := range v.slot {
			v.slot[i].off = -1
		}
	}
	if sl := v.slot[it]; sl.off >= 0 {
		return int(sl.n)
	}
	o := len(v.arena)
	v.arena = slices.Grow(v.arena, v.nw)[:o+v.nw]
	n := bitset.RankAnd(v.arena[o:], f.DQ, f.Surface.Tidsets[it])
	v.slot[it] = vecSlot{off: int32(o), n: int32(n)}
	return n
}

// vectors makes sure every item of x has a vector.
func (f *Focal) vectors(x itemset.Set) {
	for _, it := range x {
		f.vector(it)
	}
}

// Count returns |D^Q ∩ t(i₁) ∩ … ∩ t(i_k)| for the given items: the
// popcount of the AND of their vectors, built first where missing. The
// empty set counts every record of D^Q. Serial callers only.
func (f *Focal) Count(items itemset.Set) int {
	if len(items) == 0 {
		return f.Size
	}
	f.vectors(items)
	return f.vecs.count(items)
}

// Reaches reports whether Count(items) >= MinCount. Support is
// anti-monotone, so an item whose own local count falls short settles it
// without the AND, and the items after it get no vector. Serial callers
// only.
func (f *Focal) Reaches(items itemset.Set) bool {
	for _, it := range items {
		if f.vector(it) < f.MinCount {
			return false
		}
	}
	return f.Count(items) >= f.MinCount
}
