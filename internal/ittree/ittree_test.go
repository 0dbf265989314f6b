package ittree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

func buildTree(t testing.TB, minCount int) (*Tree, *relation.Dataset, *itemset.Space, []*bitset.Set) {
	t.Helper()
	b := relation.NewBuilder("salary", "Company", "Title", "Location", "Gender", "Age", "Salary")
	rows := [][]string{
		{"IBM", "QA Lead", "Boston", "M", "30-40", "60K-90K"},
		{"IBM", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"IBM", "Engg Mgr", "SFO", "M", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "SFO", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "M", "20-30", "90K-120K"},
		{"Google", "Tech Arch", "Boston", "M", "40-50", "120K-150K"},
		{"Microsoft", "Engg Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Microsoft", "Sw Engg", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Engg", "Seattle", "F", "20-30", "30K-60K"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	sp := itemset.NewSpace(d)
	res, err := charm.Mine(d, sp, minCount)
	if err != nil {
		t.Fatal(err)
	}
	return Build(res, sp.NumItems()), d, sp, itemset.ItemTidsets(d, sp)
}

func TestBuildAndLookup(t *testing.T) {
	tr, _, _, _ := buildTree(t, 2)
	if tr.Size() == 0 {
		t.Fatal("empty tree")
	}
	for id := 0; id < tr.Size(); id++ {
		got, ok := tr.LookupID(tr.Set(id).Items)
		if !ok || got != id {
			t.Errorf("LookupID of stored CFI %d failed", id)
		}
	}
	if _, ok := tr.LookupID(itemset.NewSet(0, 1)); ok {
		// items 0 and 1 are Company=IBM and Company=Google — mutually
		// exclusive, never co-stored.
		t.Error("Lookup of impossible itemset succeeded")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// globalSupport is the dataset-wide support count of x resolved through
// its closure, or -1 when no stored CFI covers x.
func globalSupport(tr *Tree, x itemset.Set) int {
	id, ok := tr.ClosureID(x)
	if !ok {
		return -1
	}
	return tr.Support(id)
}

func TestClosureResolvesSubsets(t *testing.T) {
	tr, d, sp, tidsets := buildTree(t, 2)
	_ = d
	// Closure of (Age=20-30) should carry its exact global support 6.
	a0, err := sp.ParseItem("Age=20-30")
	if err != nil {
		t.Fatal(err)
	}
	if got := globalSupport(tr, itemset.NewSet(a0)); got != 6 {
		t.Errorf("GlobalSupport(Age=20-30) = %d, want 6", got)
	}
	s2, _ := sp.ParseItem("Salary=90K-120K")
	if got := globalSupport(tr, itemset.NewSet(a0, s2)); got != 5 {
		t.Errorf("GlobalSupport(A0,S2) = %d, want 5", got)
	}
	// The closure's tidset must equal the raw intersection.
	c, ok := tr.ClosureID(itemset.NewSet(a0, s2))
	if !ok {
		t.Fatal("closure of (A0,S2) missing")
	}
	want := bitset.Intersect(tidsets[a0], tidsets[s2])
	if !tr.Tids(c).Equal(want) {
		t.Errorf("closure tidset %v != item intersection %v", tr.Tids(c), want)
	}
	// Empty set has no closure.
	if _, ok := tr.ClosureID(nil); ok {
		t.Error("closure of empty set must fail")
	}
	// An infrequent itemset (below primary support) resolves to nothing.
	if globalSupport(tr, itemset.NewSet(0, sp.ItemOf(5, 0))) != -1 {
		// Company=IBM & Salary=60K-90K co-occurs once only (record 0).
		t.Error("infrequent itemset must return -1")
	}
}

// Property: for random datasets, the closure of any subset X of a stored
// CFI has tidset equal to the intersection of X's item tidsets; and the
// tree holds the CHARM result's slabs, not a copy.
func TestQuickClosureMatchesTidsetIntersection(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nAttrs := 2 + r.Intn(3)
		names := make([]string, nAttrs)
		cards := make([]int, nAttrs)
		for i := range names {
			names[i] = string(rune('A' + i))
			cards[i] = 2 + r.Intn(3)
		}
		b := relation.NewBuilder("rand", names...)
		for a := 0; a < nAttrs; a++ {
			for v := 0; v < cards[a]; v++ {
				b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
			}
		}
		m := 6 + r.Intn(20)
		for i := 0; i < m; i++ {
			row := make([]int, nAttrs)
			for a := range row {
				row[a] = r.Intn(cards[a])
			}
			if err := b.AddRecordIdx(row...); err != nil {
				return false
			}
		}
		d := b.Build()
		sp := itemset.NewSpace(d)
		minCount := 1 + r.Intn(3)
		res, err := charm.Mine(d, sp, minCount)
		if err != nil {
			return false
		}
		tr := Build(res, sp.NumItems())
		if err := tr.Validate(); err != nil {
			return false
		}
		for id := 0; id < res.Len(); id++ {
			if &tr.Items(id)[0] != &res.Items(id)[0] || tr.Tids(id) != res.Tids(id) {
				return false
			}
		}
		tidsets := itemset.ItemTidsets(d, sp)
		for id := 0; id < res.Len(); id++ {
			// Random subset of the CFI.
			var sub itemset.Set
			for _, it := range res.Items(id) {
				if r.Intn(2) == 0 {
					sub = append(sub, it)
				}
			}
			if len(sub) == 0 {
				continue
			}
			cl, ok := tr.ClosureID(sub)
			if !ok {
				return false
			}
			inter := bitset.New(m)
			inter.Fill()
			for _, it := range sub {
				inter.And(tidsets[it])
			}
			if !tr.Tids(cl).Equal(inter) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
