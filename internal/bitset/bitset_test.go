package bitset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicAddRemoveContains(t *testing.T) {
	s := New(130)
	ids := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, id := range ids {
		s.Add(id)
	}
	for _, id := range ids {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	if s.Count() != len(ids) {
		t.Fatalf("Count() = %d, want %d", s.Count(), len(ids))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove = true")
	}
	if s.Count() != len(ids)-1 {
		t.Errorf("Count() after remove = %d, want %d", s.Count(), len(ids)-1)
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Error("out-of-range ids must be reported as absent")
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 {
		t.Error("zero-capacity set must be empty")
	}
	s.Fill()
	if s.Count() != 0 {
		t.Error("Fill on zero-capacity set must stay empty")
	}
	neg := New(-5)
	if neg.Len() != 0 {
		t.Errorf("New(-5).Len() = %d, want 0", neg.Len())
	}
}

func TestFromIDsIgnoresOutOfRange(t *testing.T) {
	s := FromIDs(8, 1, 3, 9, -2, 7)
	want := []int{1, 3, 7}
	got := s.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

func TestFillAndTrim(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill(n=%d).Count() = %d, want %d", n, s.Count(), n)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIDs(100, 1, 2, 3, 50, 99)
	b := FromIDs(100, 2, 3, 4, 98, 99)

	if got := Intersect(a, b).IDs(); !eqInts(got, []int{2, 3, 99}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := union(a, b).IDs(); !eqInts(got, []int{1, 2, 3, 4, 50, 98, 99}) {
		t.Errorf("Or = %v", got)
	}
	if got := AndCount(a, b); got != 3 {
		t.Errorf("AndCount = %d, want 3", got)
	}
}

func TestInPlaceOpsMatchFunctional(t *testing.T) {
	a := FromIDs(64, 1, 5, 9)
	b := FromIDs(64, 5, 9, 10)

	c := a.Clone()
	c.And(b)
	if !c.Equal(Intersect(a, b)) {
		t.Error("And != Intersect")
	}
	c = b.Clone()
	c.Or(a)
	if !c.Equal(FromIDs(64, 1, 5, 9, 10)) {
		t.Error("Or != the union of the ids")
	}
}

// union returns a new set holding s ∪ t.
func union(s, t *Set) *Set {
	r := s.Clone()
	r.Or(t)
	return r
}

func TestSubsetIntersects(t *testing.T) {
	a := FromIDs(32, 1, 2)
	b := FromIDs(32, 1, 2, 3)
	c := FromIDs(32, 9)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !a.SubsetOf(a) {
		t.Error("a ⊆ a expected")
	}
	vec := make([]uint64, 1)
	CopyWords(vec, b)
	if !a.IntersectsWords(vec) || c.IntersectsWords(vec) {
		t.Error("IntersectsWords wrong")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIDs(128, 3, 60, 61, 90)
	var seen []int
	s.ForEach(func(id int) bool {
		seen = append(seen, id)
		return len(seen) < 2
	})
	if !eqInts(seen, []int{3, 60}) {
		t.Errorf("early stop visited %v", seen)
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("And across capacities must panic")
		}
	}()
	New(10).And(New(20))
}

func TestStringer(t *testing.T) {
	if got := FromIDs(16, 1, 5, 9).String(); got != "{1, 5, 9}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

// randomSet builds a set plus its mirror map for property checks.
func randomSet(rng *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := make(map[int]bool)
	for i := 0; i < n/2; i++ {
		id := rng.Intn(n)
		s.Add(id)
		m[id] = true
	}
	return s, m
}

func TestQuickAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		c, _ := randomSet(r, n)

		// Commutativity.
		if !Intersect(a, b).Equal(Intersect(b, a)) {
			return false
		}
		if !union(a, b).Equal(union(b, a)) {
			return false
		}
		// Associativity of union.
		if !union(union(a, b), c).Equal(union(a, union(b, c))) {
			return false
		}
		// Distributivity: a ∩ (b ∪ c) == (a∩b) ∪ (a∩c).
		if !Intersect(a, union(b, c)).Equal(union(Intersect(a, b), Intersect(a, c))) {
			return false
		}
		// Inclusion–exclusion: |a ∪ b| == |a| + |b| − |a∩b|.
		if union(a, b).Count() != a.Count()+b.Count()-AndCount(a, b) {
			return false
		}
		// AndCount consistency.
		return AndCount(a, b) == Intersect(a, b).Count()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		s, m := randomSet(r, n)
		if s.Count() != len(m) {
			return false
		}
		for id := range m {
			if !s.Contains(id) {
				return false
			}
		}
		ids := s.IDs()
		if len(ids) != len(m) {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				return false // must be ascending
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkAndCount times the record-level support check on two dense
// bitmap containers at the chess and mushroom universes and at one full
// container: the kernel walks the words of the span, not the payload.
func BenchmarkAndCount(b *testing.B) {
	for _, n := range []int{3196, 8124, ctrBits} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			x, _ := operand(rng, n, bitmapCtr, true)
			y, _ := operand(rng, n, bitmapCtr, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				andCounted = AndCount(x, y)
			}
		})
	}
}

var andCounted int
