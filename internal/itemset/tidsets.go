package itemset

import (
	"colarm/internal/bitset"
	"colarm/internal/relation"
)

// ItemTidsets computes, for every item of the space, the tidset of records
// containing it. Index the result by Item. These per-item bitmaps are the
// shared substrate of the CHARM miner, the online ELIMINATE/VERIFY record
// checks, and the D^Q membership bitmap.
func ItemTidsets(d *relation.Dataset, sp *Space) []*bitset.Set {
	m := d.NumRecords()
	out := make([]*bitset.Set, sp.NumItems())
	for i := range out {
		out[i] = bitset.New(m)
	}
	n := d.NumAttrs()
	for r := 0; r < m; r++ {
		for a := 0; a < n; a++ {
			out[sp.ItemOf(a, d.Value(r, a))].Add(r)
		}
	}
	// Add leaves arrays of up to 4096 ids; re-pack each tidset by
	// cardinality so the read-only kernels walk the faster encoding.
	for _, t := range out {
		t.Optimize()
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
