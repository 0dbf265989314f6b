package rtree

import (
	"fmt"
	"math"
	"sort"

	"colarm/internal/itemset"
)

// Packing selects the bulk-loading order. Packed trees reach ~100% leaf
// utilization, the property the paper adopts from Kamel & Faloutsos for
// the one-time offline MIP-index build.
type Packing int

const (
	// STRPacking is Sort-Tile-Recursive packing generalized to n
	// dimensions (the default).
	STRPacking Packing = iota
	// MortonPacking sorts entries by the Morton (Z-order) code of their
	// box centers before packing; a space-filling-curve alternative in
	// the spirit of Kamel & Faloutsos' Hilbert packing.
	MortonPacking
)

func (p Packing) String() string {
	switch p {
	case STRPacking:
		return "str"
	case MortonPacking:
		return "morton"
	default:
		return fmt.Sprintf("Packing(%d)", int(p))
	}
}

// Bulk builds a packed R-tree from the given entries. cards gives the
// per-dimension domain cardinalities (used to normalize Morton keys; STR
// ignores it but validates dimensionality). fanout <= 0 selects
// DefaultFanout. The entries slice is reordered in place.
func Bulk(entries []Entry, dims, fanout int, packing Packing, cards []int) (*Tree, error) {
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
	switch packing {
	case STRPacking:
		strSort(entries, dims, fanout, 0)
	case MortonPacking:
		if len(cards) != dims {
			return nil, fmt.Errorf("rtree: morton packing needs %d cardinalities, got %d", dims, len(cards))
		}
		mortonSort(entries, cards)
	default:
		return nil, fmt.Errorf("rtree: unknown packing %v", packing)
	}
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

// mortonSort orders entries by the Z-order code of their box centers.
// Coordinates are normalized per dimension to a fixed bit budget so the
// interleaved key fits attributes of any cardinality; keys can exceed 64
// bits for high dimensionality, so they are materialized as byte strings
// and compared lexicographically.
func mortonSort(entries []Entry, cards []int) {
	bitsPer := make([]int, len(cards))
	total := 0
	for d, c := range cards {
		b := 1
		for (1 << b) < c {
			b++
		}
		bitsPer[d] = b
		total += b
	}
	keys := make([]string, len(entries))
	buf := make([]byte, (total+7)/8)
	for i := range entries {
		for j := range buf {
			buf[j] = 0
		}
		// Interleave bits round-robin from the most significant bit of
		// each dimension.
		pos := 0
		maxBits := 0
		for _, b := range bitsPer {
			if b > maxBits {
				maxBits = b
			}
		}
		for bit := maxBits - 1; bit >= 0; bit-- {
			for d := range cards {
				if bit >= bitsPer[d] {
					continue
				}
				c := uint32(center(entries[i].Box, d)) / 2
				if c>>uint(bit)&1 == 1 {
					buf[pos/8] |= 1 << uint(7-pos%8)
				}
				pos++
			}
		}
		keys[i] = string(buf)
	}
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return entries[idx[a]].ID < entries[idx[b]].ID
	})
	sorted := make([]Entry, len(entries))
	for i, j := range idx {
		sorted[i] = entries[j]
	}
	copy(entries, sorted)
}
