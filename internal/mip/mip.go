// Package mip builds and holds the Multidimensional Itemset Partitioning
// index (MIP-index, paper Section 3): the one-time offline structure that
// makes preprocess-once-query-many localized rule mining feasible.
//
// A MIP is a closed frequent itemset viewed geometrically: its bounding
// box in the n-dimensional value-index space together with the items
// composing it. The index stores both features in two layers:
//
//   - an R-tree over the MIP bounding boxes, augmented with global
//     support counts (the supported R-tree of Section 4.3);
//   - a closed IT-tree over the itemsets and their tidsets.
//
// Build also precomputes the statistics the COLARM cost model consumes
// (per-level node counts and extents, support distributions).
package mip

import (
	"fmt"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/pool"
	"colarm/internal/qerr"
	"colarm/internal/relation"
	"colarm/internal/rtree"
)

// Options configures the offline preprocessing phase.
type Options struct {
	// PrimarySupport is the primary support threshold (fraction of the
	// dataset) below which itemsets are not prestored. Analysts are
	// assumed not to ask for rules rarer than this (paper footnote 2).
	PrimarySupport float64
	// Fanout is the R-tree node capacity; <= 0 selects the default.
	Fanout int
	// Workers bounds the fan-out of the per-CFI bounding-box computation
	// during assembly: 0 means one worker per CPU, 1 forces serial. Box
	// probes are independent reads over immutable tidsets and land in
	// pre-indexed slots, so the result is worker-count-invariant.
	Workers int
}

// Index is the built MIP-index plus everything the online phase needs:
// the item space, the per-item tidsets, and precomputed statistics.
type Index struct {
	Dataset *relation.Dataset
	Space   *itemset.Space
	// Tidsets maps each item to the records containing it.
	Tidsets []*bitset.Set
	// ITTree stores the closed frequent itemsets (second index layer).
	ITTree *ittree.Tree
	// RTree indexes the MIP bounding boxes (first index layer).
	RTree *rtree.Tree
	// Boxes[i] is the bounding box of CFI i (same ids as ITTree).
	Boxes []itemset.Box
	// PrimaryCount is the primary support threshold in records.
	PrimaryCount int
	// Cards caches per-attribute cardinalities (R-tree axis sizes).
	Cards []int

	// Precomputed statistics for the cost model.
	LevelStats []rtree.LevelStats
	EntryStats rtree.EntryStats
}

// Build runs the offline preprocessing phase: CHARM at the primary
// support, IT-tree construction, MIP bounding boxes, and the packed
// supported R-tree.
func Build(d *relation.Dataset, opts Options) (*Index, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !(opts.PrimarySupport > 0 && opts.PrimarySupport <= 1) {
		return nil, fmt.Errorf("mip: primary support %v outside (0,1]", opts.PrimarySupport)
	}
	sp := itemset.NewSpace(d)
	tidsets := itemset.ItemTidsets(d, sp)
	primaryCount := charm.CountFor(opts.PrimarySupport, d.NumRecords())
	res, err := charm.MineTidsets(tidsets, d.NumRecords(), primaryCount)
	if err != nil {
		return nil, err
	}
	return assemble(d, sp, tidsets, res, nil, primaryCount, opts)
}

// assemble builds the index layers from an existing mining result.
// boxes, when non-nil, are the CFIs' bounding boxes as a snapshot stored
// them; otherwise they are probed from the tidsets.
func assemble(d *relation.Dataset, sp *itemset.Space, tidsets []*bitset.Set, res *charm.Result, boxes []itemset.Box, primaryCount int, opts Options) (*Index, error) {
	idx := &Index{
		Dataset:      d,
		Space:        sp,
		Tidsets:      tidsets,
		ITTree:       ittree.Build(res, sp.NumItems()),
		Boxes:        boxes,
		PrimaryCount: primaryCount,
	}
	idx.Cards = make([]int, sp.NumAttrs())
	for a := range idx.Cards {
		idx.Cards[a] = sp.Cardinality(a)
	}
	if boxes == nil {
		idx.Boxes = make([]itemset.Box, len(res.Closed))
	}
	// Box probes are independent tidset reads landing in pre-indexed
	// slots, so they fan out across the worker pool without affecting the
	// result.
	entries := make([]rtree.Entry, len(res.Closed))
	pool.For(len(res.Closed), pool.Workers(opts.Workers), func(id int) {
		c := res.Closed[id]
		if boxes == nil {
			idx.Boxes[id] = idx.boundingBox(c)
		}
		entries[id] = rtree.Entry{Box: idx.Boxes[id], ID: int32(id), Support: int32(c.Support)}
	})
	rt, err := rtree.Bulk(entries, sp.NumAttrs(), opts.Fanout)
	if err != nil {
		return nil, err
	}
	idx.RTree = rt
	idx.LevelStats, idx.EntryStats = rt.Stats(idx.Cards)
	return idx, nil
}

// boundingBox computes the MIP box of a CFI: a point interval on every
// dimension the itemset constrains, and the [min,max] extent of the
// supporting records on the rest. The probe walks each unconstrained
// axis from both ends testing tidset overlap with the per-value item
// tidsets, so the cost is proportional to the located extent rather than
// the support count.
func (x *Index) boundingBox(c *charm.ClosedSet) itemset.Box {
	return BoundingBox(x.Space, x.Cards, x.Tidsets, c)
}

// BoundingBox is the box computation over arbitrary tidsets, shared with
// the delta layer: the merge view recomputes boxes against tidsets that
// extend over buffered record ids, so the boxes it produces are exactly
// those a from-scratch rebuild over the merged data would compute.
func BoundingBox(sp *itemset.Space, cards []int, tidsets []*bitset.Set, c *charm.ClosedSet) itemset.Box {
	n := sp.NumAttrs()
	b := itemset.NewBox(n)
	constrained := make([]bool, n)
	for _, it := range c.Items {
		a := sp.AttrOf(it)
		v := int32(sp.ValueOf(it))
		b.Lo[a], b.Hi[a] = v, v
		constrained[a] = true
	}
	for a := 0; a < n; a++ {
		if constrained[a] {
			continue
		}
		card := cards[a]
		lo, hi := -1, -1
		for v := 0; v < card; v++ {
			if c.Tids.Intersects(tidsets[sp.ItemOf(a, v)]) {
				lo = v
				break
			}
		}
		for v := card - 1; v >= 0; v-- {
			if c.Tids.Intersects(tidsets[sp.ItemOf(a, v)]) {
				hi = v
				break
			}
		}
		if lo < 0 {
			// A CFI with an empty tidset cannot exist (support >= 1),
			// but guard against it with a degenerate full-extent box.
			lo, hi = 0, card-1
		}
		b.Lo[a], b.Hi[a] = int32(lo), int32(hi)
	}
	return b
}

// NumMIPs returns the number of prestored MIPs (closed frequent
// itemsets).
func (x *Index) NumMIPs() int { return x.ITTree.Size() }

// SubsetBitmap materializes the record bitmap of a focal-subset region.
func (x *Index) SubsetBitmap(reg *itemset.Region) *bitset.Set {
	return itemset.RegionTidset(reg, x.Space, x.Tidsets, x.Dataset.NumRecords())
}

// RegionFromSelections builds a Region from attribute-name → value-label
// selections, validating every name and label against the dataset.
func (x *Index) RegionFromSelections(sel map[string][]string) (*itemset.Region, error) {
	reg := itemset.RegionFor(x.Space)
	for name, labels := range sel {
		ai := x.Dataset.AttrIndex(name)
		if ai < 0 {
			return nil, fmt.Errorf("mip: %w: range attribute %q", qerr.ErrUnknownAttribute, name)
		}
		vals := make([]int, 0, len(labels))
		for _, l := range labels {
			v := x.Dataset.Attrs[ai].ValueIndex(l)
			if v < 0 {
				return nil, fmt.Errorf("mip: %w: attribute %q has no value %q", qerr.ErrUnknownValue, name, l)
			}
			vals = append(vals, v)
		}
		if err := reg.Restrict(ai, vals); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// Validate cross-checks the index layers: every CFI box must cover its
// supporting records, the R-tree must be structurally valid and hold one
// entry per CFI, and the IT-tree must resolve its own itemsets.
func (x *Index) Validate() error {
	if err := x.RTree.Validate(); err != nil {
		return err
	}
	if err := x.ITTree.Validate(); err != nil {
		return err
	}
	if x.RTree.Size() != x.ITTree.Size() {
		return fmt.Errorf("mip: R-tree has %d entries, IT-tree %d", x.RTree.Size(), x.ITTree.Size())
	}
	n := x.Dataset.NumAttrs()
	point := make([]int, n)
	for id := 0; id < x.ITTree.Size(); id++ {
		c := x.ITTree.Set(id)
		box := x.Boxes[id]
		ok := true
		c.Tids.ForEach(func(r int) bool {
			for a := 0; a < n; a++ {
				point[a] = x.Dataset.Value(r, a)
			}
			if !box.ContainsPoint(point) {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return fmt.Errorf("mip: box of CFI %d does not cover its records", id)
		}
	}
	return nil
}
