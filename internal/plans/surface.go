package plans

import (
	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/pool"
	"colarm/internal/rtree"
)

// ShardSlice is one shard's projection of the record space: the records
// the shard owns and the per-item tidsets restricted to those records.
// Slices partition the live record ids — every live record belongs to
// exactly one shard — so per-shard support counts sum to the global
// count exactly (tidset supports are additive across a partition), which
// is what makes scatter-gather recombination exact rather than
// approximate. A ShardSlice is immutable once published.
type ShardSlice struct {
	// Records is the set of live record ids owned by the shard, in the
	// global id space (ids are never renumbered per shard).
	Records *bitset.Set
	// Items maps each item to its tidset restricted to Records.
	Items []*bitset.Set
}

// Surface is the index state one query reads: the only way a plan or the
// applicability gate sees the MIP-index. Every physical source yields
// the same shape — the frozen index (NewSurface, once at assembly), the
// delta store's merged view of one delta version (delta.Store.Surface),
// and a sharded collection decorating either with its partition
// (shard.Collection.Surface) — so the operators have one path each and
// branch on two things only: RTree == nil and len(Slices) > 1.
//
// Whatever built it, a Surface presents exactly what a from-scratch
// build over its records would: Tree holds their closed frequent
// itemsets at PrimaryCount with their supports and tidsets, Boxes the
// MIP bounding boxes over the same records (so Lemma 4.5's contained-box
// shortcut stays sound), Tidsets the per-item tidsets covering live
// records only. That is why all six plans return identical rules over a
// merged surface and over a rebuild.
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
	// RTree indexes Boxes with the CFIs' supports. Nil on a merged
	// surface, whose boxes no packed tree covers: (SUPPORTED-)SEARCH then
	// classifies Boxes linearly — the same candidates, at the traversal
	// cost the refresh policy charges a stale index per query.
	RTree *rtree.Tree
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
	// out of unrestricted dimensions, and ARM's table scan passes over
	// the rest.
	Live *bitset.Set
	// Value returns the value index of record r at attribute a, for
	// every id below NumRecords.
	Value func(r, a int) int
	// Slices partitions the live records across the shards of a sharded
	// engine. One slice or none keeps execution monolithic; with more,
	// the record-level work scatters and the gather sums per-shard counts.
	Slices []ShardSlice
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
		PrimaryCount: idx.PrimaryCount,
		NumRecords:   idx.Dataset.NumRecords(),
		Value:        idx.Dataset.Value,
	}
}

// Focal is the focal subset D^Q of one query over one surface, computed
// once per request by Executor.Focus and read — never written — by the
// applicability gate and by every plan the request goes on to run.
type Focal struct {
	// Surface is the surface the subset was selected from; a plan given
	// this Focal executes against it.
	Surface *Surface
	// DQ is the focal subset's record bitmap.
	DQ *bitset.Set
	// Shards[s] is DQ restricted to slice s of a sharded surface (their
	// union is DQ); nil on the monolithic path.
	Shards []*bitset.Set
	// Size is |D^Q| and MinCount the query's minsupport as a record count
	// within it — the localized threshold.
	Size, MinCount int
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
// On a sharded surface the subset is built per shard from the shard's own
// tidset slice, in parallel across the worker pool, and gathered by
// union — the slices partition the live records, so the union equals the
// monolithic D^Q exactly. q must have passed Validate.
func (ex *Executor) Focus(s *Surface, q *Query) *Focal {
	f := &Focal{Surface: s}
	if len(s.Slices) > 1 {
		f.Shards = make([]*bitset.Set, len(s.Slices))
		pool.For(len(s.Slices), ex.workers(), func(i int) {
			sl := s.Slices[i]
			dq := itemset.RegionTidset(q.Region, ex.Space, sl.Items, s.NumRecords)
			dq.And(sl.Records)
			f.Shards[i] = dq
		})
		f.DQ = bitset.New(s.NumRecords)
		for _, dq := range f.Shards {
			f.DQ.Or(dq)
		}
	} else {
		f.DQ = itemset.RegionTidset(q.Region, ex.Space, s.Tidsets, s.NumRecords)
		if s.Live != nil {
			// Unrestricted dimensions contribute a full bitmap; intersect
			// with the live set so deleted records stay out of D^Q.
			f.DQ.And(s.Live)
		}
	}
	f.Size = f.DQ.Count()
	f.MinCount = charm.CountFor(q.MinSupport, f.Size)
	return f
}
