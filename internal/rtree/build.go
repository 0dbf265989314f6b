package rtree

import (
	"fmt"
	"math"
	"slices"

	"colarm/internal/itemset"
)

// Bulk builds a packed R-tree over the n = len(b.Sups) sparse boxes of
// b by Sort-Tile-Recursive packing generalized to n dimensions, one per
// attribute of b.Cards. Packed trees reach ~100% leaf utilization, the
// property the paper adopts from Kamel & Faloutsos for the one-time
// offline MIP-index build and for every merged surface of the delta
// layer. fanout <= 0 selects DefaultFanout. The entries' ids are their
// positions in b; the tree keeps b's item arena, which the caller must
// not modify afterwards.
func Bulk(b Boxes, fanout int) (*Tree, error) {
	dims, n := len(b.Cards), len(b.Sups)
	if dims < 1 {
		return nil, fmt.Errorf("rtree: dimensionality %d < 1", dims)
	}
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout %d < 2", fanout)
	}
	if len(b.ItemOff) != n+1 || len(b.RecOff) != n+1 {
		return nil, fmt.Errorf("rtree: %d item and %d record offsets for %d entries", len(b.ItemOff), len(b.RecOff), n)
	}
	if int(b.ItemOff[n]) > len(b.Items) || int(b.RecOff[n]) > len(b.Recs) {
		return nil, fmt.Errorf("rtree: offsets past %d items and %d record values", len(b.Items), len(b.Recs))
	}
	t := &Tree{dims: dims, fanout: fanout, base: Base(b.Cards), items: b.Items, itemOff: b.ItemOff}
	t.pack(t.strOrder(&b), &b)
	return t, nil
}

// Base returns the item numbering of attributes of cards values, the base
// the sparse box functions of itemset take: attribute a's items are
// base[a]..base[a+1]-1.
func Base(cards []int) []int32 {
	base := make([]int32, len(cards)+1)
	for a, c := range cards {
		base[a+1] = base[a] + int32(c)
	}
	return base
}

// strOrder returns the ids 0..n-1 in STR packing order: each tile sorted
// by (doubled center along its dimension, ID). Each tile reads its
// entries' bounds once into packed uint64 keys — the center with its
// sign bit flipped, then the id — and sorts those, so comparisons read
// no box, and the order is that of a comparison sort on (center, ID).
func (t *Tree) strOrder(b *Boxes) []uint32 {
	n := len(b.Sups)
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n > t.fanout {
		t.strTile(b, perm, make([]uint64, n), 0)
	}
	return perm
}

// strTile recursively tiles perm: sort by the center of dimension dim,
// cut into slabs sized so that each slab recursively tiles the remaining
// dimensions, ending with runs of `fanout` entries that become leaves.
// perm holds entry ids into b; keys is scratch as long as perm.
func (t *Tree) strTile(b *Boxes, perm []uint32, keys []uint64, dim int) {
	dims, fanout := t.dims, t.fanout
	if len(perm) <= fanout || dim >= dims {
		return
	}
	for i, id := range perm {
		lo, hi := itemset.SparseBounds(t.base, b.itemsOf(int(id)), b.recOf(int(id)), dim)
		c := uint32(lo+hi) ^ 1<<31
		keys[i] = uint64(c)<<32 | uint64(id)
	}
	slices.Sort(keys)
	for i, k := range keys {
		perm[i] = uint32(k)
	}
	// Number of leaves needed and slab size along this dimension:
	// classic STR uses P = ceil(N/M) leaves and S = ceil(P^(1/k)) slabs
	// over the k remaining dimensions.
	leaves := (len(perm) + fanout - 1) / fanout
	remaining := dims - dim
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := ((leaves + slabs - 1) / slabs) * fanout
	if slabSize < fanout {
		slabSize = fanout
	}
	for i := 0; i < len(perm); i += slabSize {
		end := min(i+slabSize, len(perm))
		t.strTile(b, perm[i:end], keys[i:end], dim+1)
	}
}
