package itemset

import (
	"math/bits"
	"slices"
)

// A MIP box is stored sparse, as the R-tree's leaf entry. By CHARM's
// closure it is a point on exactly the attributes of its itemset, whose
// items the IT-tree's item arena holds, and it spans the whole domain on
// most other attributes. So its record, a run of int32 values, holds only
// what the itemset does not say:
//
//   - the item mask, SparseWords(dims) values: bit a%32 of value a/32 set
//     on the attribute of each item;
//   - when the box spans less than the whole domain on an attribute
//     outside the itemset, the run mask in as many values, bit a set on
//     each such attribute, then one (lo, hi) pair per set bit, in
//     attribute order.
//
// The masks let a box test find a restricted attribute's point or run by
// its rank among the set bits instead of walking the lists. Items are
// sorted, at most one per attribute, in Space's dense ids: attribute a's
// items are base[a]..base[a+1]-1, so base has one value more than there
// are attributes.

// SparseWords returns how many mask values a record over dims attributes
// holds per mask.
func SparseWords(dims int) int { return (dims + 31) / 32 }

// AppendSparse appends to rec the record of the box lo, hi of itemset
// items; the box's values on the items' attributes are not read.
func AppendSparse(rec []int32, base []int32, items Set, lo, hi []int32) []int32 {
	words := SparseWords(len(lo))
	at, n := len(rec), len(rec)+2*words // both masks, until no run shows
	rec = slices.Grow(rec, 2*words+2*len(lo))
	rec = rec[:cap(rec)]
	clear(rec[at:n])
	i := 0
	for a := range lo {
		bit := int32(1) << (a & 31)
		if i < len(items) && int32(items[i]) < base[a+1] {
			rec[at+a>>5] |= bit
			i++
		} else if lo[a] != 0 || hi[a] != base[a+1]-base[a]-1 {
			rec[at+words+a>>5] |= bit
			rec[n], rec[n+1] = lo[a], hi[a]
			n += 2
		}
	}
	if n == at+2*words {
		n = at + words
	}
	return rec[:n]
}

// ExpandSparse writes the box of itemset items and record rec into lo
// and hi, one value per attribute each.
func ExpandSparse(base []int32, items Set, rec []int32, lo, hi []int32) {
	for a := range lo {
		lo[a], hi[a] = 0, base[a+1]-base[a]-1
	}
	words := SparseWords(len(lo))
	i := 0
	for w, m := range rec[:words] {
		for x := uint32(m); x != 0; x &= x - 1 {
			a := w<<5 | bits.TrailingZeros32(x)
			lo[a] = int32(items[i]) - base[a]
			hi[a] = lo[a]
			i++
		}
	}
	if len(rec) > words {
		k := 2 * words
		for w, m := range rec[words : 2*words] {
			for x := uint32(m); x != 0; x &= x - 1 {
				a := w<<5 | bits.TrailingZeros32(x)
				lo[a], hi[a] = rec[k], rec[k+1]
				k += 2
			}
		}
	}
}

// SparseBounds returns the interval on attribute a of the box of itemset
// items and record rec.
func SparseBounds(base []int32, items Set, rec []int32, a int) (lo, hi int32) {
	words := SparseWords(len(base) - 1)
	w, bit := a>>5, uint32(1)<<(a&31)
	if uint32(rec[w])&bit != 0 {
		v := int32(items[rank(rec[:words], w, bit)]) - base[a]
		return v, v
	}
	if len(rec) > words && uint32(rec[words+w])&bit != 0 {
		k := 2*words + 2*rank(rec[words:2*words], w, bit)
		return rec[k], rec[k+1]
	}
	return 0, base[a+1] - base[a] - 1
}

// rank counts the set bits of mask before bit of value w.
func rank(mask []int32, w int, bit uint32) int {
	n := bits.OnesCount32(uint32(mask[w]) & (bit - 1))
	for _, x := range mask[:w] {
		n += bits.OnesCount32(uint32(x))
	}
	return n
}

// RelationSparse is Relation over the box of itemset items and record
// rec. Per restricted dimension it reads the item or run that rank finds,
// or, on the whole domain, the relation Restrict stored.
func (r *Region) RelationSparse(base []int32, items Set, rec []int32) Rel {
	words := SparseWords(len(r.cards))
	runs := len(rec) > words
	rel := Contained
	for j, d := range r.restricted {
		w, bit := d>>5, uint32(1)<<(d&31)
		if uint32(rec[w])&bit != 0 {
			if !r.sel[d][int32(items[rank(rec[:words], w, bit)])-base[d]] {
				return Disjoint
			}
			continue
		}
		if runs && uint32(rec[words+w])&bit != 0 {
			k := 2*words + 2*rank(rec[words:2*words], w, bit)
			lo, hi := rec[k], rec[k+1]
			pre := r.prefix[d]
			n := pre[hi+1] - pre[lo]
			if n == 0 {
				return Disjoint
			}
			if n != hi-lo+1 {
				rel = Partial
			}
			continue
		}
		switch r.full[j] {
		case Disjoint:
			return Disjoint
		case Partial:
			rel = Partial
		}
	}
	return rel
}
