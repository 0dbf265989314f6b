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
// A MIP's box is probed from its tidset laid out as a dense word vector:
// each free axis is walked in from both ends, testing each value's item
// tidset against the vector (bitset.Set.IntersectsWords) in the
// tidset's own encoding until one shares a record.
package mip

import (
	"context"
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
}

// Index is the built MIP-index plus everything the online phase needs:
// the item space and the per-item tidsets.
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
	return build(d, charm.CountFor(opts.PrimarySupport, d.NumRecords()), opts.Fanout)
}

// boxChunk is how many CFIs one box-probe task of the index build takes:
// enough to share a scratch vector, few enough to balance the workers.
const boxChunk = 64

// build mines the validated dataset d at primaryCount records and
// builds the index layers over the result with an R-tree of the given
// fanout. Build and ReadSnapshot both end here, so a loaded snapshot
// holds the index a fresh build of its rows does.
func build(d *relation.Dataset, primaryCount, fanout int) (*Index, error) {
	sp := itemset.NewSpace(d)
	tidsets := itemset.ItemTidsets(d, sp)
	res, err := charm.MineTidsets(tidsets, d.NumRecords(), primaryCount)
	if err != nil {
		return nil, err
	}
	idx := &Index{
		Dataset:      d,
		Space:        sp,
		Tidsets:      tidsets,
		ITTree:       ittree.Build(res, sp.NumItems()),
		Boxes:        make([]itemset.Box, len(res.Closed)),
		PrimaryCount: primaryCount,
	}
	idx.Cards = make([]int, sp.NumAttrs())
	for a := range idx.Cards {
		idx.Cards[a] = sp.Cardinality(a)
	}
	// Box probes are independent tidset reads landing in pre-indexed
	// slots, so they fan out, a chunk of CFIs at a time, without
	// affecting the result. Each CFI's tidset is laid out as a word
	// vector in its chunk's one scratch vector.
	n := len(res.Closed)
	entries := make([]rtree.Entry, n)
	if _, err := pool.Run(context.Background(), (n+boxChunk-1)/boxChunk, func(k int) {
		vec := make([]uint64, (d.NumRecords()+63)/64)
		for id := k * boxChunk; id < min(n, (k+1)*boxChunk); id++ {
			c := res.Closed[id]
			bitset.CopyWords(vec, c.Tids)
			idx.Boxes[id] = BoundingBox(sp, idx.Cards, tidsets, c.Items, vec)
			entries[id] = rtree.Entry{Box: idx.Boxes[id], ID: int32(id), Support: int32(c.Support)}
		}
	}); err != nil {
		return nil, err
	}
	rt, err := rtree.Bulk(entries, sp.NumAttrs(), fanout)
	if err != nil {
		return nil, err
	}
	idx.RTree = rt
	return idx, nil
}

// BoundingBox returns the MIP box of itemset items whose supporters vec
// holds in bitset.CopyWords's layout over the universe of tidsets: a
// point on each dimension the itemset constrains, and on each other the
// [min,max] value of the supporters, each bound found by Reach. A value
// outside the extent costs a test of its whole tidset, the support count
// nothing. The merged view calls it with vectors over buffered ids too,
// so its boxes are exactly those a rebuild over the merged data computes.
func BoundingBox(sp *itemset.Space, cards []int, tidsets []*bitset.Set, items itemset.Set, vec []uint64) itemset.Box {
	n := sp.NumAttrs()
	b := itemset.NewBox(n)
	constrained := make([]bool, n)
	for _, it := range items {
		a := sp.AttrOf(it)
		v := int32(sp.ValueOf(it))
		b.Lo[a], b.Hi[a] = v, v
		constrained[a] = true
	}
	for a := 0; a < n; a++ {
		if constrained[a] {
			continue
		}
		lo, ok := Reach(sp, cards, tidsets, a, 0, +1, vec)
		if !ok {
			// A CFI with an empty tidset cannot exist (support >= 1),
			// but guard against it with a degenerate full-extent box.
			b.Lo[a], b.Hi[a] = 0, int32(cards[a]-1)
			continue
		}
		hi, _ := Reach(sp, cards, tidsets, a, cards[a]-1, -1, vec)
		b.Lo[a], b.Hi[a] = int32(lo), int32(hi)
	}
	return b
}

// Reach walks attribute a's values from v in direction step (+1 or -1)
// and returns the first whose item tidset shares a record with vec (in
// bitset.CopyWords's layout), or false when none on the walk does.
func Reach(sp *itemset.Space, cards []int, tidsets []*bitset.Set, a, v, step int, vec []uint64) (int, bool) {
	for ; v >= 0 && v < cards[a]; v += step {
		if tidsets[sp.ItemOf(a, v)].IntersectsWords(vec) {
			return v, true
		}
	}
	return 0, false
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

// BoxDomainError reports a MIP box outside its domain. The box tests
// (itemset.Region.Relation) require 0 <= Lo[d] <= Hi[d] < card(d) on
// every dimension d: they skip the dimensions a region leaves
// unrestricted, so a box past its domain there would read as Contained
// and SS-E-U-V would take its global support as the local one.
type BoxDomainError struct {
	CFI, Dim int
	Lo, Hi   int32
	Card     int
}

func (e *BoxDomainError) Error() string {
	return fmt.Sprintf("mip: box of CFI %d spans [%d..%d] on dimension %d, outside its domain [0..%d)",
		e.CFI, e.Lo, e.Hi, e.Dim, e.Card)
}

// Validate cross-checks the index layers: every CFI box must lie inside
// the domain (a *BoxDomainError otherwise) and cover its supporting
// records, the R-tree must be structurally valid and hold one entry per
// CFI, and the IT-tree must resolve its own itemsets.
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
		for d, c := range x.Cards {
			if lo, hi := box.Lo[d], box.Hi[d]; lo < 0 || lo > hi || int(hi) >= c {
				return &BoxDomainError{CFI: id, Dim: d, Lo: lo, Hi: hi, Card: c}
			}
		}
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
