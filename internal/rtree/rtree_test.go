package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"colarm/internal/itemset"
)

// randomEntries builds n random boxes in a dims-dimensional grid with the
// given per-dimension cardinalities.
func randomEntries(r *rand.Rand, n, dims int, cards []int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		b := itemset.NewBox(dims)
		for d := 0; d < dims; d++ {
			lo := r.Intn(cards[d])
			hi := lo + r.Intn(cards[d]-lo)
			b.Lo[d], b.Hi[d] = int32(lo), int32(hi)
		}
		es[i] = Entry{Box: b, ID: int32(i), Support: int32(1 + r.Intn(100))}
	}
	return es
}

func randomRegion(r *rand.Rand, cards []int) *itemset.Region {
	reg := itemset.NewRegion(cards)
	for d := range cards {
		if r.Intn(2) == 0 {
			continue
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
			panic(err)
		}
	}
	return reg
}

// collect runs a Search and returns matched ids sorted, with their rels.
func collect(t *Tree, reg *itemset.Region) (ids []int32, rels map[int32]itemset.Rel) {
	rels = map[int32]itemset.Rel{}
	t.Search(reg, func(e Entry, rel itemset.Rel) bool {
		ids = append(ids, e.ID)
		rels[e.ID] = rel
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return
}

// linearSearch is the brute-force oracle.
func linearSearch(es []Entry, reg *itemset.Region, minCount int) (ids []int32, rels map[int32]itemset.Rel) {
	rels = map[int32]itemset.Rel{}
	for _, e := range es {
		if minCount >= 0 && int(e.Support) < minCount {
			continue
		}
		rel := reg.Relation(e.Box)
		if rel == itemset.Disjoint {
			continue
		}
		ids = append(ids, e.ID)
		rels[e.ID] = rel
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return
}

func TestBulkValidation(t *testing.T) {
	if _, err := Bulk(nil, nil, 0, 8); err == nil {
		t.Error("dims 0 must error")
	}
	if _, err := Bulk(nil, nil, 2, 1); err == nil {
		t.Error("fanout 1 must error")
	}
	if _, err := Bulk(make([]int32, 6), []int32{0}, 2, 8); err == nil {
		t.Error("dim mismatch must error")
	}
	// Empty bulk gives a working empty tree.
	tr, err := Bulk(nil, nil, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 0 || tr.Height() != 1 {
		t.Error("empty bulk shape wrong")
	}
	if def, err := Bulk(nil, nil, 2, 0); err != nil || def.Fanout() != DefaultFanout {
		t.Errorf("fanout 0 must select the default: %v, %v", def, err)
	}
	reg := itemset.NewRegion([]int{4, 4})
	st := tr.Search(reg, func(Entry, itemset.Rel) bool { t.Error("no entries expected"); return true })
	if st.EntriesEmitted != 0 {
		t.Error("empty tree emitted entries")
	}
}

func TestPackedSearchMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cards := []int{8, 5, 12}
	es := randomEntries(r, 500, 3, cards)
	tr, err := BulkEntries(es, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(es) {
		t.Fatalf("size %d", tr.Size())
	}
	for trial := 0; trial < 30; trial++ {
		reg := randomRegion(r, cards)
		gotIDs, gotRels := collect(tr, reg)
		wantIDs, wantRels := linearSearch(es, reg, -1)
		if !eqIDs(gotIDs, wantIDs) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(gotIDs), len(wantIDs))
		}
		for id, rel := range wantRels {
			if gotRels[id] != rel {
				t.Fatalf("trial %d: id %d rel %v, want %v", trial, id, gotRels[id], rel)
			}
		}
	}
}

func TestSupportedSearchMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cards := []int{10, 10}
	es := randomEntries(r, 400, 2, cards)
	tr, err := BulkEntries(es, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		reg := randomRegion(r, cards)
		minCount := r.Intn(120)
		var gotIDs []int32
		tr.SupportedSearch(reg, minCount, func(e Entry, rel itemset.Rel) bool {
			gotIDs = append(gotIDs, e.ID)
			return true
		})
		sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
		wantIDs, _ := linearSearch(es, reg, minCount)
		if !eqIDs(gotIDs, wantIDs) {
			t.Fatalf("trial %d minCount %d: got %d, want %d", trial, minCount, len(gotIDs), len(wantIDs))
		}
	}
}

func TestSupportedSearchPrunesNodes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cards := []int{20, 20}
	es := randomEntries(r, 2000, 2, cards)
	tr, _ := BulkEntries(es, 2, 8)
	reg := itemset.NewRegion(cards) // full domain
	plain := tr.Search(reg, func(Entry, itemset.Rel) bool { return true })
	supp := tr.SupportedSearch(reg, 101, func(Entry, itemset.Rel) bool { return true })
	if supp.EntriesEmitted != 0 {
		t.Error("no entry has support > 100")
	}
	if supp.NodesVisited >= plain.NodesVisited {
		t.Errorf("supported search visited %d nodes, plain %d — no pruning", supp.NodesVisited, plain.NodesVisited)
	}
}

// TestDynamicInsertMatchesLinear is the tall-tree reference case: 600
// entries at fanout 5 pack at least four levels.
func TestDynamicInsertMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cards := []int{9, 7, 6}
	es := randomEntries(r, 600, 3, cards)
	tr, err := BulkEntries(es, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != len(es) {
		t.Fatalf("size %d", tr.Size())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("expected height >= 3, got %d", tr.Height())
	}
	for trial := 0; trial < 20; trial++ {
		reg := randomRegion(r, cards)
		gotIDs, _ := collect(tr, reg)
		wantIDs, _ := linearSearch(es, reg, -1)
		if !eqIDs(gotIDs, wantIDs) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(gotIDs), len(wantIDs))
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cards := []int{6, 6}
	es := randomEntries(r, 200, 2, cards)
	tr, _ := BulkEntries(es, 2, 4)
	reg := itemset.NewRegion(cards)
	n := 0
	tr.Search(reg, func(Entry, itemset.Rel) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d entries", n)
	}
}

func TestStats(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cards := []int{10, 10}
	es := randomEntries(r, 300, 2, cards)
	sups := make([]int32, len(es))
	for i, e := range es {
		sups[i] = e.Support
	}
	sort.Slice(sups, func(a, b int) bool { return sups[a] < sups[b] })
	tr, _ := BulkEntries(es, 2, 8)
	levels := tr.Stats(cards)
	if len(levels) != tr.Height() {
		t.Fatalf("levels %d != height %d", len(levels), tr.Height())
	}
	if levels[0].Nodes != 1 {
		t.Errorf("root level nodes = %d", levels[0].Nodes)
	}
	for li, ls := range levels {
		for d, e := range ls.AvgExtent {
			if e < 0 || e > 1 {
				t.Errorf("level %d dim %d extent %v outside [0,1]", li, d, e)
			}
		}
		if !sort.SliceIsSorted(ls.Supports, func(a, b int) bool { return ls.Supports[a] < ls.Supports[b] }) {
			t.Errorf("level %d supports not sorted", li)
		}
	}
	// Root extent should be ~ full domain (random boxes cover it).
	if levels[0].AvgExtent[0] < 0.5 {
		t.Errorf("root extent suspiciously small: %v", levels[0].AvgExtent)
	}
	// Selectivity helper.
	if f := FractionAtLeast(sups, 0); f != 1 {
		t.Errorf("FractionAtLeast(0) = %v", f)
	}
	if f := FractionAtLeast(sups, 1000); f != 0 {
		t.Errorf("FractionAtLeast(1000) = %v", f)
	}
	if f := FractionAtLeast(nil, 5); f != 0 {
		t.Errorf("FractionAtLeast(nil) = %v", f)
	}
	mid := FractionAtLeast(sups, 50)
	if mid <= 0 || mid >= 1 {
		t.Errorf("FractionAtLeast(50) = %v, want interior", mid)
	}
}

func TestPackedLeafUtilization(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	cards := []int{15, 15}
	es := randomEntries(r, 1024, 2, cards)
	tr, _ := BulkEntries(es, 2, 16)
	// 1024 entries / fanout 16 = exactly 64 full leaves.
	levels := tr.Stats(cards)
	leaves := levels[len(levels)-1].Nodes
	if leaves != 64 {
		t.Errorf("leaves = %d, want 64 (perfect packing)", leaves)
	}
}

func TestQuickSearchEqualsLinear(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := 1 + r.Intn(4)
		cards := make([]int, dims)
		for d := range cards {
			cards[d] = 2 + r.Intn(9)
		}
		n := 1 + r.Intn(150)
		es := randomEntries(r, n, dims, cards)
		fanout := 2 + r.Intn(10)

		tr, err := BulkEntries(es, dims, fanout)
		if err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		reg := randomRegion(r, cards)
		minCount := -1
		if r.Intn(2) == 0 {
			minCount = r.Intn(110)
		}
		var gotIDs []int32
		gotRels := map[int32]itemset.Rel{}
		fn := func(e Entry, rel itemset.Rel) bool {
			gotIDs = append(gotIDs, e.ID)
			gotRels[e.ID] = rel
			return true
		}
		if minCount >= 0 {
			tr.SupportedSearch(reg, minCount, fn)
		} else {
			tr.Search(reg, fn)
		}
		sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
		wantIDs, wantRels := linearSearch(es, reg, minCount)
		if !eqIDs(gotIDs, wantIDs) {
			return false
		}
		for id, rel := range wantRels {
			if gotRels[id] != rel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func eqIDs(a, b []int32) bool {
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
