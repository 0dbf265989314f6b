package itemset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"colarm/internal/relation"
)

func testSpace(t *testing.T) (*Space, *relation.Dataset) {
	t.Helper()
	b := relation.NewBuilder("t", "A", "B", "C")
	// A: 3 values, B: 2 values, C: 4 values.
	rows := [][]string{
		{"a0", "b0", "c0"},
		{"a1", "b1", "c1"},
		{"a2", "b0", "c2"},
		{"a0", "b1", "c3"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	return NewSpace(d), d
}

func TestSpaceMapping(t *testing.T) {
	sp, _ := testSpace(t)
	if sp.NumItems() != 9 {
		t.Fatalf("NumItems = %d, want 9", sp.NumItems())
	}
	if sp.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d", sp.NumAttrs())
	}
	for a := 0; a < sp.NumAttrs(); a++ {
		for v := 0; v < sp.Cardinality(a); v++ {
			it := sp.ItemOf(a, v)
			if sp.AttrOf(it) != a {
				t.Errorf("AttrOf(ItemOf(%d,%d)) = %d", a, v, sp.AttrOf(it))
			}
			if sp.ValueOf(it) != v {
				t.Errorf("ValueOf(ItemOf(%d,%d)) = %d", a, v, sp.ValueOf(it))
			}
		}
	}
	if got := sp.Label(sp.ItemOf(1, 1)); got != "B=b1" {
		t.Errorf("Label = %q", got)
	}
}

func TestParseItem(t *testing.T) {
	sp, _ := testSpace(t)
	it, err := sp.ParseItem("C=c2")
	if err != nil {
		t.Fatal(err)
	}
	if sp.AttrOf(it) != 2 || sp.ValueOf(it) != 2 {
		t.Errorf("ParseItem(C=c2) = attr %d value %d", sp.AttrOf(it), sp.ValueOf(it))
	}
	for _, bad := range []string{"nope", "D=x", "A=zz"} {
		if _, err := sp.ParseItem(bad); err == nil {
			t.Errorf("ParseItem(%q) must error", bad)
		}
	}
}

// TestLabelsBuiltOnce pins the label table: rendering an itemset costs
// its one result slice and no string, and every label parses back to
// the item it names.
func TestLabelsBuiltOnce(t *testing.T) {
	sp, _ := testSpace(t)
	set := NewSet(sp.ItemOf(0, 1), sp.ItemOf(1, 2), sp.ItemOf(2, 0))
	if got := testing.AllocsPerRun(100, func() { _ = sp.Labels(set) }); got != 1 {
		t.Errorf("Labels allocates %v times per call, want 1", got)
	}
	for it := Item(0); int(it) < sp.NumItems(); it++ {
		back, err := sp.ParseItem(sp.Label(it))
		if err != nil || back != it {
			t.Errorf("ParseItem(Label(%d)) = %d, %v", it, back, err)
		}
	}
}

func TestSetOps(t *testing.T) {
	s := NewSet(5, 1, 3, 1)
	if !s.Equal(Set{1, 3, 5}) {
		t.Fatalf("NewSet dedup/sort = %v", s)
	}
	tt := NewSet(3, 7)
	if got := s.Union(tt); !got.Equal(Set{1, 3, 5, 7}) {
		t.Errorf("Union = %v", got)
	}
	if got := s.Minus(tt); !got.Equal(Set{1, 5}) {
		t.Errorf("Minus = %v", got)
	}
	if !NewSet(1, 3).SubsetOf(s) || NewSet(1, 9).SubsetOf(s) {
		t.Error("SubsetOf wrong")
	}
	if !NewSet().SubsetOf(s) {
		t.Error("empty set must be subset of all")
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
	if s.Key() != "1,3,5" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetFormatAndRestrict(t *testing.T) {
	sp, _ := testSpace(t)
	s := NewSet(sp.ItemOf(0, 1), sp.ItemOf(2, 3))
	if got := s.Format(sp); got != "(A=a1, C=c3)" {
		t.Errorf("Format = %q", got)
	}
	attrOK := []bool{true, true, false}
	got, all := s.RestrictedTo(sp, attrOK)
	if all {
		t.Error("restriction should have dropped an item")
	}
	if !got.Equal(Set{sp.ItemOf(0, 1)}) {
		t.Errorf("RestrictedTo = %v", got)
	}
	attrAll := []bool{true, true, true}
	got2, all2 := s.RestrictedTo(sp, attrAll)
	if !all2 || !got2.Equal(s) {
		t.Error("full restriction should be identity")
	}
}

// spanning returns the smallest box holding every point, the fixture the
// box and region tests build on.
func spanning(points ...[]int32) Box {
	b := NewBox(len(points[0]))
	for _, p := range points {
		b.ExtendBox(Box{Lo: p, Hi: p})
	}
	return b
}

func TestBoxBasics(t *testing.T) {
	if !NewBox(2).IsEmpty() {
		t.Error("fresh box must be empty")
	}
	b := spanning([]int32{1, 4}, []int32{3, 2})
	if b.IsEmpty() {
		t.Error("extended box must not be empty")
	}
	if b.Lo[0] != 1 || b.Hi[0] != 3 || b.Lo[1] != 2 || b.Hi[1] != 4 {
		t.Fatalf("box = %v", b)
	}
	if b.Extent(0) != 3 || b.Extent(1) != 3 {
		t.Errorf("extents = %d,%d", b.Extent(0), b.Extent(1))
	}
	if !b.ContainsPoint([]int{2, 3}) || b.ContainsPoint([]int{0, 3}) {
		t.Error("ContainsPoint wrong")
	}
	o := spanning([]int32{2, 2})
	if !b.ContainsBox(o) || o.ContainsBox(b) {
		t.Error("ContainsBox wrong")
	}
	if !b.Intersects(o) {
		t.Error("Intersects wrong")
	}
	far := spanning([]int32{9, 9})
	if b.Intersects(far) {
		t.Error("disjoint boxes must not intersect")
	}
	c := b.Clone()
	c.ExtendBox(spanning([]int32{0, 0}))
	if b.Lo[0] == 0 {
		t.Error("Clone must be independent")
	}
	b.ExtendBox(far)
	if b.Hi[0] != 9 || b.Hi[1] != 9 {
		t.Error("ExtendBox wrong")
	}
	if b.String() == "" {
		t.Error("String must render")
	}
}

func TestRegionRelation(t *testing.T) {
	// Dimensions with cardinalities 4, 3.
	r := NewRegion([]int{4, 3})
	// Full-domain region contains everything.
	b := spanning([]int32{0, 0}, []int32{3, 2})
	if got := r.Relation(b); got != Contained {
		t.Fatalf("full region relation = %v", got)
	}
	// Restrict dim 0 to {1,2}.
	if err := r.Restrict(0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	inside := spanning([]int32{1, 0}, []int32{2, 2})
	if got := r.Relation(inside); got != Contained {
		t.Errorf("inside relation = %v, want contained", got)
	}
	partial := spanning([]int32{0, 0}, []int32{2, 1})
	if got := r.Relation(partial); got != Partial {
		t.Errorf("partial relation = %v, want partial", got)
	}
	out := spanning([]int32{3, 1})
	if got := r.Relation(out); got != Disjoint {
		t.Errorf("disjoint relation = %v, want disjoint", got)
	}
	// Non-contiguous selection: {0, 3} — box [0..3] is partial because
	// 1,2 are unselected.
	r2 := NewRegion([]int{4, 3})
	if err := r2.Restrict(0, []int{0, 3}); err != nil {
		t.Fatal(err)
	}
	span := spanning([]int32{0, 0}, []int32{3, 2})
	if got := r2.Relation(span); got != Partial {
		t.Errorf("non-contiguous span = %v, want partial", got)
	}
	point := spanning([]int32{3, 1})
	if got := r2.Relation(point); got != Contained {
		t.Errorf("point at selected value = %v, want contained", got)
	}
}

func TestRegionMembershipAndStats(t *testing.T) {
	r := NewRegion([]int{4, 3})
	if err := r.Restrict(0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !r.ContainsPoint([]int{1, 0}) || r.ContainsPoint([]int{0, 0}) {
		t.Error("ContainsPoint wrong")
	}
	if r.SelectedCount(0) != 2 || r.SelectedCount(1) != 3 {
		t.Error("SelectedCount wrong")
	}
	if got := r.Selected(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Selected(0) = %v", got)
	}
	if r.AvgExtent(0) != 0.5 || r.AvgExtent(1) != 1.0 {
		t.Errorf("AvgExtent = %v, %v", r.AvgExtent(0), r.AvgExtent(1))
	}
	bb := r.BoundingBox()
	if bb.Lo[0] != 1 || bb.Hi[0] != 2 || bb.Lo[1] != 0 || bb.Hi[1] != 2 {
		t.Errorf("BoundingBox = %v", bb)
	}
	if r.IsEmpty() {
		t.Error("region not empty")
	}
	if err := r.Restrict(1, nil); err != nil {
		t.Fatal(err)
	}
	if !r.IsEmpty() {
		t.Error("empty selection must make region empty")
	}
	if err := r.Restrict(9, []int{0}); err == nil {
		t.Error("out-of-range dimension must error")
	}
	if err := r.Restrict(0, []int{99}); err == nil {
		t.Error("out-of-range value must error")
	}
}

func TestRelStringer(t *testing.T) {
	for _, tc := range []struct {
		r    Rel
		want string
	}{{Disjoint, "disjoint"}, {Partial, "partial"}, {Contained, "contained"}} {
		if tc.r.String() != tc.want {
			t.Errorf("%v.String() = %q", tc.r, tc.r.String())
		}
	}
}

// Property: Region.Relation agrees with a brute-force cell enumeration.
func TestQuickRegionRelationBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cards := []int{2 + r.Intn(5), 2 + r.Intn(5)}
		reg := NewRegion(cards)
		for d := 0; d < 2; d++ {
			if r.Intn(2) == 0 {
				continue // leave unrestricted
			}
			var vals []int
			for v := 0; v < cards[d]; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				vals = []int{r.Intn(cards[d])}
			}
			if err := reg.Restrict(d, vals); err != nil {
				return false
			}
		}
		// Random box.
		b := NewBox(2)
		for d := 0; d < 2; d++ {
			lo := r.Intn(cards[d])
			hi := lo + r.Intn(cards[d]-lo)
			b.Lo[d], b.Hi[d] = int32(lo), int32(hi)
		}
		// Brute force: enumerate cells of the box.
		all, any := true, false
		for x := b.Lo[0]; x <= b.Hi[0]; x++ {
			for y := b.Lo[1]; y <= b.Hi[1]; y++ {
				if reg.ContainsPoint([]int{int(x), int(y)}) {
					any = true
				} else {
					all = false
				}
			}
		}
		want := Partial
		switch {
		case !any:
			want = Disjoint
		case all:
			want = Contained
		}
		return reg.Relation(b) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: set algebra laws on random small itemsets.
func TestQuickSetAlgebra(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rnd := func() Set {
			var items []Item
			for i := 0; i < r.Intn(8); i++ {
				items = append(items, Item(r.Intn(20)))
			}
			return NewSet(items...)
		}
		a, b := rnd(), rnd()
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if !a.Minus(b).SubsetOf(a) {
			return false
		}
		// |a ∪ b| = |a| + |b| - |a ∩ b| where |a ∩ b| = |a| - |a \ b|.
		inter := len(a) - len(a.Minus(b))
		if len(u) != len(a)+len(b)-inter {
			return false
		}
		// Union is idempotent and commutative.
		if !a.Union(a).Equal(a) || !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refRelation is the box test as it was before Relation walked only the
// restricted dimensions: every dimension counts its selected values in
// the box's interval, value by value.
func refRelation(r *Region, b Box) Rel {
	rel := Contained
	for d := range r.cards {
		n := int32(0)
		for v := b.Lo[d]; v <= b.Hi[d]; v++ {
			if r.sel[d] == nil || r.sel[d][v] {
				n++
			}
		}
		if n == 0 {
			return Disjoint
		}
		if n != b.Hi[d]-b.Lo[d]+1 {
			rel = Partial
		}
	}
	return rel
}

// FuzzRegionRelation holds Relation and RelationPacked to refRelation
// over random cardinalities, regions restricted in random order
// (full-domain and empty selections included, a dimension restricted
// more than once) and boxes inside the domain, edge values included. A
// region built from the same final selections in the reverse dimension
// order must be reflect.DeepEqual to it.
func FuzzRegionRelation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 2, 5, 6, 1, 0, 2, 2, 3, 1, 7, 0, 0, 1, 3, 2})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 255, 0, 255, 1})
	f.Add([]byte{1, 0, 3, 0, 1, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 3, 3, 2, 5, 1, 0}) // one dimension restricted three times
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int { // the next input byte mod n, 0 once data runs out
			if len(data) == 0 || n <= 1 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		dims := 1 + next(6)
		cards := make([]int, dims)
		for d := range cards {
			cards[d] = 1 + next(6)
		}
		reg := NewRegion(cards)
		final := make([][]int, dims) // nil: unrestricted
		for ops := next(9); ops > 0; ops-- {
			d := next(dims)
			vals := []int{}
			switch next(4) {
			case 0: // the full domain, explicitly
				for v := 0; v < cards[d]; v++ {
					vals = append(vals, v)
				}
			case 1: // empty
			default:
				bits := next(256)
				for v := 0; v < cards[d]; v++ {
					if bits>>v&1 == 1 {
						vals = append(vals, v)
					}
				}
			}
			if err := reg.Restrict(d, vals); err != nil {
				t.Fatal(err)
			}
			final[d] = vals
		}
		rev := NewRegion(cards)
		for d := dims - 1; d >= 0; d-- {
			if final[d] != nil {
				if err := rev.Restrict(d, final[d]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(reg, rev) {
			t.Fatalf("restriction order changed the region:\n%+v\n%+v", reg, rev)
		}

		var arena []int32
		var boxes []Box
		for k := 1 + next(8); k > 0; k-- {
			b := NewBox(dims)
			for d, c := range cards {
				switch next(4) {
				case 0: // the whole axis
					b.Lo[d], b.Hi[d] = 0, int32(c-1)
				case 1: // a point on an edge
					v := int32(next(2) * (c - 1))
					b.Lo[d], b.Hi[d] = v, v
				default:
					lo := next(c)
					b.Lo[d], b.Hi[d] = int32(lo), int32(lo+next(c-lo))
				}
			}
			boxes = append(boxes, b)
			arena = append(append(arena, b.Lo...), b.Hi...)
		}
		for i, b := range boxes {
			want := refRelation(reg, b)
			if got := reg.Relation(b); got != want {
				t.Errorf("cards %v region %v box %v: Relation = %v, want %v", cards, final, b, got, want)
			}
			if got := reg.RelationPacked(arena, i*2*dims, dims); got != want {
				t.Errorf("cards %v region %v box %v: RelationPacked = %v, want %v", cards, final, b, got, want)
			}
		}
	})
}
