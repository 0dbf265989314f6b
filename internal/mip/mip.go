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
// Both layers come out of one pipeline, Assemble, which the offline
// build and the merged view of internal/delta share. A MIP's box is
// probed from its supporters as a dense word vector — the AND of its
// items' vectors in the arena CHARM mined — and written straight into
// the id-ordered slab the R-tree is packed from: each free axis is
// walked in from both ends, testing each value's item tidset against
// the vector (bitset.Set.IntersectsWords) in the tidset's own encoding
// until one shares a record. The offline build's box function also
// stores the CFI's tidset from that vector (tidsetOf); the merged view
// stores none.
package mip

import (
	"context"
	"fmt"
	"runtime"
	"slices"

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
	// RTree indexes and stores the MIP boxes: RTree.Box(i) is CFI i's.
	RTree *rtree.Tree
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

// build mines the validated dataset d at primaryCount records and
// builds the index layers over the result with an R-tree of the given
// fanout. Build and ReadSnapshot both end here, so a loaded snapshot
// holds the index a fresh build of its rows does.
func build(d *relation.Dataset, primaryCount, fanout int) (*Index, error) {
	sp := itemset.NewSpace(d)
	tidsets := itemset.ItemTidsets(d, sp)
	items, vecs, err := charm.Frequent(tidsets, d.NumRecords(), primaryCount)
	if err != nil {
		return nil, err
	}
	res, err := charm.MineVectors(context.Background(), items, vecs, d.NumRecords(), primaryCount, nil)
	if err != nil {
		return nil, err
	}
	cards := make([]int, sp.NumAttrs())
	for a := range cards {
		cards[a] = sp.Cardinality(a)
	}
	tids := make([]*bitset.Set, res.Len())
	tree, rt, err := Assemble(res, tids, sp, items, vecs, fanout, func(p *Probe) {
		vec := p.Supporters()
		BoundingBox(sp, cards, tidsets, p.Items, vec, p.Lo, p.Hi)
		tids[p.ID] = tidsetOf(tidsets, p.Items, res.Support(p.ID), d.NumRecords(), vec)
	})
	if err != nil {
		return nil, err
	}
	return &Index{
		Dataset:      d,
		Space:        sp,
		Tidsets:      tidsets,
		ITTree:       tree,
		RTree:        rt,
		PrimaryCount: primaryCount,
		Cards:        cards,
	}, nil
}

// tidsetOf returns the tidset of a CFI over items with supp of the n
// records, which vec holds in bitset.CopyWords's layout. When one of its
// items has exactly supp records, the CFI's records are that item's,
// and the item's own set is shared; any other CFI gets a new set in
// Optimize's encoding.
func tidsetOf(tidsets []*bitset.Set, items itemset.Set, supp, n int, vec []uint64) *bitset.Set {
	for _, it := range items {
		if tidsets[it].Count() == supp {
			return tidsets[it]
		}
	}
	return bitset.FromWords(n, vec)
}

// Probe is what a box function sees of one CFI: its id, its itemset, its
// slot in the box slab (Lo, Hi) and, on request, its supporters. A
// worker's one Probe serves each CFI it boxes in turn.
type Probe struct {
	ID     int
	Items  itemset.Set
	Lo, Hi []int32

	items   []itemset.Item // the arena's items, ascending
	vecs    [][]uint64     // vecs[k] is items[k]'s vector
	scratch []uint64
	vec     []uint64 // the supporters once formed, else nil
}

// Supporters returns the CFI's supporters in bitset.CopyWords's layout:
// the AND of its items' arena vectors, formed on the first call in the
// worker's scratch. It is read-only and valid while the box call runs.
func (p *Probe) Supporters() []uint64 {
	if p.vec == nil {
		p.vec = p.scratch
		for w := range p.vec {
			p.vec[w] = ^uint64(0)
		}
		for _, it := range p.Items {
			k, _ := slices.BinarySearch(p.items, it)
			for w, y := range p.vecs[k] {
				p.vec[w] &= y
			}
		}
	}
	return p.vec
}

// boxChunk is how many CFIs one box task takes: enough to amortize
// borrowing a Probe, few enough to balance the workers.
const boxChunk = 64

// Assemble builds the MIP-index's two layers over res, a CHARM run over
// items/vecs (charm.Frequent's layout): box writes each CFI's MIP box
// into an id-ordered slab, the R-tree is packed from it at fanout, and
// the IT-tree adopts res and tids, the CFI tidsets box stores by id (nil
// for none). Box calls write disjoint slots, so they fan out without
// affecting the result; a panic in one comes back as a
// *pool.PanicError.
func Assemble(res *charm.Result, tids []*bitset.Set, sp *itemset.Space, items []itemset.Item, vecs [][]uint64, fanout int, box func(*Probe)) (*ittree.Tree, *rtree.Tree, error) {
	n, dims := res.Len(), sp.NumAttrs()
	boxes, sups := make([]int32, n*2*dims), make([]int32, n)
	chunks := (n + boxChunk - 1) / boxChunk
	// A task borrows one of the workers' Probes for its chunk, so the
	// fan-out allocates per worker, not per CFI.
	free := make(chan *Probe, max(1, min(runtime.GOMAXPROCS(0), chunks)))
	for range cap(free) {
		free <- &Probe{items: items, vecs: vecs, scratch: make([]uint64, (res.NumRecords+63)/64)}
	}
	if _, err := pool.Run(context.Background(), chunks, func(k int) {
		p := <-free
		defer func() { free <- p }()
		for id := k * boxChunk; id < min(n, (k+1)*boxChunk); id++ {
			o := id * 2 * dims
			p.ID, p.Items, p.vec = id, res.Items(id), nil
			p.Lo, p.Hi = boxes[o:o+dims:o+dims], boxes[o+dims:o+2*dims:o+2*dims]
			box(p)
			sups[id] = int32(res.Support(id))
		}
	}); err != nil {
		return nil, nil, err
	}
	rt, err := rtree.Bulk(boxes, sups, dims, fanout)
	if err != nil {
		return nil, nil, err
	}
	return ittree.Build(res, tids, sp.NumItems()), rt, nil
}

// BoundingBox writes into lo and hi the MIP box of itemset items whose
// supporters vec holds in bitset.CopyWords's layout over the universe of
// tidsets: a point on each dimension the itemset constrains, and on
// each other the [min,max] value of the supporters, each bound found by
// Reach. A value outside the extent costs a test of its whole tidset,
// the support count nothing. The merged view calls it with vectors over
// buffered ids too, so its boxes are exactly those a rebuild over the
// merged data computes.
func BoundingBox(sp *itemset.Space, cards []int, tidsets []*bitset.Set, items itemset.Set, vec []uint64, lo, hi []int32) {
	for a := range hi {
		hi[a] = -1 // not constrained by items
	}
	for _, it := range items {
		a := sp.AttrOf(it)
		lo[a] = int32(sp.ValueOf(it))
		hi[a] = lo[a]
	}
	for a := range lo {
		if hi[a] >= 0 {
			continue
		}
		l, ok := Reach(sp, cards, tidsets, a, 0, +1, vec)
		if !ok {
			// A CFI with an empty tidset cannot exist (support >= 1),
			// but guard against it with a degenerate full-extent box.
			lo[a], hi[a] = 0, int32(cards[a]-1)
			continue
		}
		h, _ := Reach(sp, cards, tidsets, a, cards[a]-1, -1, vec)
		lo[a], hi[a] = int32(l), int32(h)
	}
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
