package rtree

import (
	"fmt"
	"math"
	"sort"

	"colarm/internal/itemset"
)

// Bulk builds a packed R-tree from the given entries by
// Sort-Tile-Recursive packing generalized to n dimensions. Packed trees
// reach ~100% leaf utilization, the property the paper adopts from
// Kamel & Faloutsos for the one-time offline MIP-index build.
// fanout <= 0 selects DefaultFanout. The entries slice is reordered in
// place.
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
	strSort(entries, dims, fanout, 0)
	t := &Tree{dims: dims, fanout: fanout}
	t.pack(entries)
	return t, nil
}

// strSort recursively tiles the entries: sort by the center of dimension
// dim, cut into slabs sized so that each slab recursively tiles the
// remaining dimensions, ending with runs of `fanout` entries that become
// leaves.
func strSort(entries []Entry, dims, fanout, dim int) {
	if len(entries) <= fanout || dim >= dims {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		ci := center(entries[i].Box, dim)
		cj := center(entries[j].Box, dim)
		if ci != cj {
			return ci < cj
		}
		return entries[i].ID < entries[j].ID
	})
	// Number of leaves needed and slab size along this dimension:
	// classic STR uses P = ceil(N/M) leaves and S = ceil(P^(1/k)) slabs
	// over the k remaining dimensions.
	leaves := (len(entries) + fanout - 1) / fanout
	remaining := dims - dim
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := ((leaves+slabs-1)/slabs)*fanout + 0
	if slabSize < fanout {
		slabSize = fanout
	}
	for i := 0; i < len(entries); i += slabSize {
		end := min(i+slabSize, len(entries))
		strSort(entries[i:end], dims, fanout, dim+1)
	}
}

func center(b itemset.Box, dim int) int32 {
	return b.Lo[dim] + b.Hi[dim] // 2×center; ordering is what matters
}
