package itemset

import (
	"colarm/internal/bitset"
	"colarm/internal/relation"
)

// ItemTidsets computes, for every item of the space, the tidset of records
// containing it. Index the result by Item. These per-item bitmaps are the
// shared substrate of the CHARM miner, the online ELIMINATE/VERIFY record
// checks, and the D^Q membership bitmap.
//
// One attribute at a time, the attribute's column is handed to
// bitset.FromColumn, which counts each value's ids per container before
// filling it in the encoding Optimize would pick: no tidset grows id by
// id or is re-packed, and the scratch is one column and one count per
// value, so a column unique per record costs what any other does.
func ItemTidsets(d *relation.Dataset, sp *Space) []*bitset.Set {
	m := d.NumRecords()
	out := make([]*bitset.Set, sp.NumItems())
	col := make([]int32, m)
	for a := 0; a < d.NumAttrs(); a++ {
		for r := range col {
			col[r] = int32(d.Value(r, a))
		}
		for v, t := range bitset.FromColumn(col, sp.Cardinality(a)) {
			out[sp.ItemOf(a, v)] = t
		}
	}
	return out
}

// RegionTidset computes the bitmap of records inside the region:
// AND over restricted dimensions of (OR over selected values of the
// per-item tidsets). An unrestricted region yields the full record set.
func RegionTidset(reg *Region, sp *Space, tidsets []*bitset.Set, numRecords int) *bitset.Set {
	var acc *bitset.Set
	for d := 0; d < reg.Dims(); d++ {
		if !reg.Restricted(d) {
			continue
		}
		dim := bitset.New(numRecords)
		for _, v := range reg.Selected(d) {
			dim.Or(tidsets[sp.ItemOf(d, v)])
		}
		if acc == nil {
			acc = dim
		} else {
			acc.And(dim)
		}
	}
	if acc == nil {
		acc = bitset.New(numRecords)
		acc.Fill()
	}
	return acc
}
