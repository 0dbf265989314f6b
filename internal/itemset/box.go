package itemset

import (
	"fmt"
	"slices"
	"strings"
)

// Box is an axis-aligned bounding box in the n-dimensional value-index
// space: for each dimension d, the closed interval [Lo[d], Hi[d]].
// An itemset's MIP box degenerates to a point on the dimensions the
// itemset constrains and spans the extent of its supporting records on
// the rest.
type Box struct {
	Lo, Hi []int32
}

// NewBox allocates a box of n dimensions with an empty (inverted)
// interval in every dimension, ready to be extended with Extend.
func NewBox(n int) Box {
	b := Box{Lo: make([]int32, n), Hi: make([]int32, n)}
	for d := 0; d < n; d++ {
		b.Lo[d] = 1 << 30
		b.Hi[d] = -1
	}
	return b
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Lo) }

// ExtendBox grows the box to include the box o.
func (b Box) ExtendBox(o Box) {
	for d := range b.Lo {
		if o.Lo[d] < b.Lo[d] {
			b.Lo[d] = o.Lo[d]
		}
		if o.Hi[d] > b.Hi[d] {
			b.Hi[d] = o.Hi[d]
		}
	}
}

// IsEmpty reports whether the box has an inverted interval (never
// extended) in any dimension.
func (b Box) IsEmpty() bool {
	for d := range b.Lo {
		if b.Lo[d] > b.Hi[d] {
			return true
		}
	}
	return len(b.Lo) == 0
}

// ContainsBox reports whether o lies entirely within b.
func (b Box) ContainsBox(o Box) bool {
	for d := range b.Lo {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Extent returns the number of values the box spans in dimension d
// (Hi-Lo+1); cost-model code normalizes this by the axis cardinality.
func (b Box) Extent(d int) int { return int(b.Hi[d] - b.Lo[d] + 1) }

// String renders the box as "[0..2]×[1..1]×..." for debugging.
func (b Box) String() string {
	var sb strings.Builder
	for d := range b.Lo {
		if d > 0 {
			sb.WriteByte('x')
		}
		fmt.Fprintf(&sb, "[%d..%d]", b.Lo[d], b.Hi[d])
	}
	return sb.String()
}

// Rel classifies the spatial relationship between a focal-subset region
// and a MIP bounding box (paper Section 3.4: contained, partially
// overlapped, disjoint).
type Rel int

const (
	Disjoint Rel = iota
	Partial
	Contained
)

func (r Rel) String() string {
	switch r {
	case Disjoint:
		return "disjoint"
	case Partial:
		return "partial"
	case Contained:
		return "contained"
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Region is the focal subset D^Q: for each dimension, the set of selected
// value indices. A nil dimension mask means the full domain (the paper's
// default when an attribute is absent from the RANGE clause). Regions are
// cross products of the per-dimension selections, which is exactly the
// shape the WHERE RANGE clause of query Q can express.
type Region struct {
	// sel[d] == nil means every value of dimension d is selected;
	// otherwise sel[d][v] reports whether value v is selected.
	sel [][]bool
	// prefix[d] is the running count of selected values up to index v,
	// enabling O(1) "how many selected values fall in [lo,hi]" tests.
	prefix [][]int32
	// restricted lists the dimensions with an explicit selection in
	// ascending order; the box tests walk only these. full[j] is the
	// relation of restricted[j]'s whole domain, on which a sparse box
	// stores nothing.
	restricted []int
	full       []Rel
	cards      []int
}

// NewRegion creates a region over a space with the given per-dimension
// cardinalities, initially selecting the full domain everywhere.
func NewRegion(cards []int) *Region {
	return &Region{
		sel:    make([][]bool, len(cards)),
		prefix: make([][]int32, len(cards)),
		cards:  append([]int(nil), cards...),
	}
}

// RegionFor creates a full-domain region for the space.
func RegionFor(sp *Space) *Region {
	cards := make([]int, sp.NumAttrs())
	for a := range cards {
		cards[a] = sp.Cardinality(a)
	}
	return NewRegion(cards)
}

// Restrict narrows dimension d to exactly the given value indices. An
// empty selection makes the region empty. Out-of-range values error.
func (r *Region) Restrict(d int, values []int) error {
	if d < 0 || d >= len(r.cards) {
		return fmt.Errorf("itemset: region dimension %d out of range", d)
	}
	mask := make([]bool, r.cards[d])
	for _, v := range values {
		if v < 0 || v >= r.cards[d] {
			return fmt.Errorf("itemset: value index %d out of range for dimension %d (cardinality %d)", v, d, r.cards[d])
		}
		mask[v] = true
	}
	r.sel[d] = mask
	pre := make([]int32, r.cards[d]+1)
	for v := 0; v < r.cards[d]; v++ {
		pre[v+1] = pre[v]
		if mask[v] {
			pre[v+1]++
		}
	}
	r.prefix[d] = pre
	all := Contained
	switch pre[r.cards[d]] {
	case 0:
		all = Disjoint
	case int32(r.cards[d]):
	default:
		all = Partial
	}
	i, found := slices.BinarySearch(r.restricted, d)
	if found {
		r.full[i] = all
	} else {
		r.restricted = slices.Insert(r.restricted, i, d)
		r.full = slices.Insert(r.full, i, all)
	}
	return nil
}

// Dims returns the region's dimensionality.
func (r *Region) Dims() int { return len(r.cards) }

// Restricted reports whether dimension d has an explicit selection.
func (r *Region) Restricted(d int) bool { return r.sel[d] != nil }

// SelectedCount returns the number of selected values in dimension d.
func (r *Region) SelectedCount(d int) int {
	if r.sel[d] == nil {
		return r.cards[d]
	}
	return int(r.prefix[d][r.cards[d]])
}

// Selected returns the selected value indices of dimension d in
// ascending order (the full domain when unrestricted).
func (r *Region) Selected(d int) []int {
	out := make([]int, 0, r.SelectedCount(d))
	for v := 0; v < r.cards[d]; v++ {
		if r.sel[d] == nil || r.sel[d][v] {
			out = append(out, v)
		}
	}
	return out
}

// Relation classifies box b against the region (Lemma 4.5 drives the
// special treatment of Contained). Contained means every cell of b lies
// inside the region; Disjoint means no selected value in some dimension
// of b; anything else is Partial. The classification is conservative for
// Partial: a box whose interval includes unselected values is Partial
// even if no supporting record sits on them, which only costs extra
// record-level checks, never correctness.
//
// Only the restricted dimensions are tested. An unrestricted dimension
// selects its whole domain, so it passes any box that lies inside the
// domain as Contained; every box must satisfy 0 <= Lo[d] <= Hi[d] <
// card(d) on every dimension. Every MIP box is the [min,max] of its
// supporters' value indices, written by the box function of
// mip.Assemble — mip.BoundingBox in the index build, the merged view's
// patch of a frozen box otherwise, both probing with mip.Reach — so
// none can leave the domain; mip.Index.Validate and rtree.Tree.Validate
// check it in the index tests.
func (r *Region) Relation(b Box) Rel { return r.relation(b.Lo, b.Hi) }

// RelationPacked is Relation over a box packed at arena[off:off+2*dims]
// (Lo run, then Hi run) — the flat R-tree's inline node box layout. It
// skips the construction of a Box view on the hot search path.
func (r *Region) RelationPacked(arena []int32, off, dims int) Rel {
	return r.relation(arena[off:off+dims], arena[off+dims:off+2*dims])
}

// relation is the one loop behind Relation and RelationPacked: per
// restricted dimension, how many selected values fall in [lo[d], hi[d]]
// (an O(1) prefix-count difference, the interval clamped to the domain).
func (r *Region) relation(lo, hi []int32) Rel {
	rel := Contained
	for _, d := range r.restricted {
		l, h := max(lo[d], 0), min(hi[d], int32(r.cards[d])-1)
		if l > h {
			return Disjoint
		}
		pre := r.prefix[d]
		n := pre[h+1] - pre[l]
		if n == 0 {
			return Disjoint
		}
		if n != hi[d]-lo[d]+1 {
			rel = Partial
		}
	}
	return rel
}

// ContainsPoint reports whether the record point p lies in the region;
// this is the record-level membership test for D^Q.
func (r *Region) ContainsPoint(p []int) bool {
	for d, v := range p {
		if r.sel[d] != nil && !r.sel[d][v] {
			return false
		}
	}
	return true
}

// AvgExtent returns the fraction of dimension d's domain selected by the
// region — D^Q_i_avg in the paper's cost notation (Table 3), normalized
// to [0,1].
func (r *Region) AvgExtent(d int) float64 {
	if r.cards[d] == 0 {
		return 0
	}
	return float64(r.SelectedCount(d)) / float64(r.cards[d])
}
