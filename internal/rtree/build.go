package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Bulk builds a packed R-tree from the given entries by
// Sort-Tile-Recursive packing generalized to n dimensions. Packed trees
// reach ~100% leaf utilization, the property the paper adopts from
// Kamel & Faloutsos for the one-time offline MIP-index build and for
// every merged surface of the delta layer. fanout <= 0 selects
// DefaultFanout. The entries slice is reordered in place.
func Bulk(entries []Entry, dims, fanout int) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("rtree: dimensionality %d < 1", dims)
	}
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout %d < 2", fanout)
	}
	for i := range entries {
		if entries[i].Box.Dims() != dims {
			return nil, fmt.Errorf("rtree: entry %d has %d dims, want %d", i, entries[i].Box.Dims(), dims)
		}
	}
	strOrder(entries, dims, fanout)
	t := &Tree{dims: dims, fanout: fanout}
	t.pack(entries)
	return t, nil
}

// strOrder puts the entries in STR packing order: each tile sorted by
// (doubled center along its dimension, ID). Each tile reads its
// entries' boxes once into packed uint64 keys — the center with its
// sign bit flipped, then the entry's rank in ID order — and sorts those,
// so comparisons read no box, and the order is that of a comparison
// sort on (center, ID).
func strOrder(entries []Entry, dims, fanout int) {
	n := len(entries)
	if n <= fanout {
		return
	}
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) })
	perm := make([]uint32, n) // perm[i] is the rank of the entry at position i
	for i := range perm {
		perm[i] = uint32(i)
	}
	keys := make([]uint64, n)
	strTile(entries, perm, keys, dims, fanout, 0)
	byID := slices.Clone(entries)
	for i, r := range perm {
		entries[i] = byID[r]
	}
}

// strTile recursively tiles perm: sort by the center of dimension dim,
// cut into slabs sized so that each slab recursively tiles the remaining
// dimensions, ending with runs of `fanout` entries that become leaves.
// perm holds ranks into byID, the entries in ID order; keys is scratch
// as long as perm.
func strTile(byID []Entry, perm []uint32, keys []uint64, dims, fanout, dim int) {
	if len(perm) <= fanout || dim >= dims {
		return
	}
	for i, r := range perm {
		b := byID[r].Box
		c := uint32(b.Lo[dim]+b.Hi[dim]) ^ 1<<31
		keys[i] = uint64(c)<<32 | uint64(r)
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
		strTile(byID, perm[i:end], keys[i:end], dims, fanout, dim+1)
	}
}
