package rtree

import (
	"fmt"
	"math"
	"slices"
)

// Bulk builds a packed R-tree over n = len(sups) entries by
// Sort-Tile-Recursive packing generalized to n dimensions. Packed trees
// reach ~100% leaf utilization, the property the paper adopts from
// Kamel & Faloutsos for the one-time offline MIP-index build and for
// every merged surface of the delta layer. fanout <= 0 selects
// DefaultFanout. The entries' ids are their positions: boxes holds
// entry id's box at boxes[id*2*dims:(id+1)*2*dims], dims Lo values then
// dims Hi values (the entry slab's own layout), and sups[id] its
// support. Both are only read.
func Bulk(boxes, sups []int32, dims, fanout int) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("rtree: dimensionality %d < 1", dims)
	}
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout %d < 2", fanout)
	}
	if len(boxes) != len(sups)*2*dims {
		return nil, fmt.Errorf("rtree: %d box values for %d entries of %d dims", len(boxes), len(sups), dims)
	}
	t := &Tree{dims: dims, fanout: fanout}
	t.pack(strOrder(boxes, len(sups), dims, fanout), boxes, sups)
	return t, nil
}

// strOrder returns the ids 0..n-1 in STR packing order: each tile sorted
// by (doubled center along its dimension, ID). Each tile reads its
// entries' boxes once into packed uint64 keys — the center with its
// sign bit flipped, then the id — and sorts those, so comparisons read
// no box, and the order is that of a comparison sort on (center, ID).
func strOrder(boxes []int32, n, dims, fanout int) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n > fanout {
		strTile(boxes, perm, make([]uint64, n), dims, fanout, 0)
	}
	return perm
}

// strTile recursively tiles perm: sort by the center of dimension dim,
// cut into slabs sized so that each slab recursively tiles the remaining
// dimensions, ending with runs of `fanout` entries that become leaves.
// perm holds entry ids into the boxes slab; keys is scratch as long as
// perm.
func strTile(boxes []int32, perm []uint32, keys []uint64, dims, fanout, dim int) {
	if len(perm) <= fanout || dim >= dims {
		return
	}
	for i, id := range perm {
		o := int(id)*2*dims + dim
		c := uint32(boxes[o]+boxes[o+dims]) ^ 1<<31
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
		strTile(boxes, perm[i:end], keys[i:end], dims, fanout, dim+1)
	}
}
