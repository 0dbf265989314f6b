package charm

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

// salary builds the paper's Table 1 dataset.
func salary(t testing.TB) (*relation.Dataset, *itemset.Space) {
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
	return d, itemset.NewSpace(d)
}

func TestCountFor(t *testing.T) {
	cases := []struct {
		supp float64
		m    int
		want int
	}{
		{0.5, 10, 5}, {0.45, 11, 5}, {0.27, 11, 3}, {0.001, 10, 1}, {1.0, 7, 7},
	}
	for _, c := range cases {
		if got := CountFor(c.supp, c.m); got != c.want {
			t.Errorf("CountFor(%v, %d) = %d, want %d", c.supp, c.m, got, c.want)
		}
	}
}

func TestMineSupportValidation(t *testing.T) {
	d, sp := salary(t)
	if _, err := MineSupport(d, sp, 0); err == nil {
		t.Error("support 0 must error")
	}
	if _, err := MineSupport(d, sp, 1.5); err == nil {
		t.Error("support > 1 must error")
	}
	if _, err := Mine(d, sp, 0); err == nil {
		t.Error("count 0 must error")
	}
}

// TestPaperGlobalRule verifies the paper's running example: the global
// rule (Age=20-30 → Salary=90K-120K) has support 5/11 and the itemset
// {A0, S2} appears among the CFIs with support 5.
func TestPaperGlobalRule(t *testing.T) {
	d, sp := salary(t)
	tidsets := itemset.ItemTidsets(d, sp)
	res, err := Mine(d, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := sp.ParseItem("Age=20-30")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sp.ParseItem("Salary=90K-120K")
	if err != nil {
		t.Fatal(err)
	}
	target := itemset.NewSet(a0, s2)
	found := false
	for _, c := range closedOf(res) {
		if target.SubsetOf(c.Items) && c.Support == 5 {
			found = true
			// Closure of {A0,S2} must be exactly the 5 matching records.
			want := bitset.FromIDs(11, 1, 2, 3, 4, 5)
			if got := intersection(tidsets, c.Items, 11); !got.Equal(want) && target.Equal(c.Items) {
				t.Errorf("tidset of %s = %v, want %v", c.Items.Format(sp), got, want)
			}
		}
	}
	if !found {
		t.Error("closure of (Age=20-30, Salary=90K-120K) with support 5 not found")
	}
}

func TestClosedSetsAreClosedAndFrequent(t *testing.T) {
	d, sp := salary(t)
	tidsets := itemset.ItemTidsets(d, sp)
	res, err := Mine(d, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no CFIs mined")
	}
	for _, c := range closedOf(res) {
		if c.Support < 2 {
			t.Errorf("%s support %d below threshold", c.Items.Format(sp), c.Support)
		}
		// The support is the count of the member items' common records.
		inter := intersection(tidsets, c.Items, d.NumRecords())
		if c.Support != inter.Count() {
			t.Errorf("%s support %d != tidset %d", c.Items.Format(sp), c.Support, inter.Count())
		}
		if !isClosed(c.Items, inter, tidsets) {
			t.Errorf("%s is not closed", c.Items.Format(sp))
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, c := range closedOf(res) {
		k := c.Items.Key()
		if seen[k] {
			t.Errorf("duplicate CFI %s", c.Items.Format(sp))
		}
		seen[k] = true
	}
}

func TestCharmMatchesBruteForceOnSalary(t *testing.T) {
	d, sp := salary(t)
	tidsets := itemset.ItemTidsets(d, sp)
	for _, minCount := range []int{1, 2, 3, 4, 5, 6} {
		res, err := Mine(d, sp, minCount)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForceClosed(tidsets, d.NumRecords(), minCount)
		if !sameClosed(closedOf(res), want) {
			t.Errorf("minCount=%d: charm %d CFIs, brute force %d", minCount, res.Len(), len(want))
		}
	}
}

func sameClosed(a, b []*ClosedSet) bool {
	if len(a) != len(b) {
		return false
	}
	am := map[string]int{}
	for _, c := range a {
		am[c.Items.Key()] = c.Support
	}
	for _, c := range b {
		if s, ok := am[c.Items.Key()]; !ok || s != c.Support {
			return false
		}
	}
	return true
}

// randomDataset builds a small random relational dataset.
func randomDataset(r *rand.Rand) (*relation.Dataset, *itemset.Space) {
	nAttrs := 2 + r.Intn(3)
	cards := make([]int, nAttrs)
	names := make([]string, nAttrs)
	for i := range cards {
		cards[i] = 2 + r.Intn(3)
		names[i] = string(rune('A' + i))
	}
	b := relation.NewBuilder("rand", names...)
	for a := 0; a < nAttrs; a++ {
		for v := 0; v < cards[a]; v++ {
			b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
		}
	}
	m := 5 + r.Intn(25)
	for i := 0; i < m; i++ {
		row := make([]int, nAttrs)
		for a := range row {
			row[a] = r.Intn(cards[a])
		}
		if err := b.AddRecordIdx(row...); err != nil {
			panic(err)
		}
	}
	d := b.Build()
	return d, itemset.NewSpace(d)
}

// Property: CHARM output equals brute-force closed itemsets on random
// relational datasets — the core correctness invariant of the offline
// phase.
func TestQuickCharmEqualsBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, sp := randomDataset(r)
		tidsets := itemset.ItemTidsets(d, sp)
		minCount := 1 + r.Intn(d.NumRecords()/2+1)
		res, err := Mine(d, sp, minCount)
		if err != nil {
			return false
		}
		want := BruteForceClosed(tidsets, d.NumRecords(), minCount)
		return sameClosed(closedOf(res), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: lowering the threshold never loses CFIs mined at a higher
// threshold (monotonicity of the closed-set family).
func TestQuickThresholdMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, sp := randomDataset(r)
		hi := 2 + r.Intn(5)
		lo := 1 + r.Intn(hi)
		resHi, err := Mine(d, sp, hi)
		if err != nil {
			return false
		}
		resLo, err := Mine(d, sp, lo)
		if err != nil {
			return false
		}
		low := map[string]int{}
		for _, c := range closedOf(resLo) {
			low[c.Items.Key()] = c.Support
		}
		for _, c := range closedOf(resHi) {
			if s, ok := low[c.Items.Key()]; !ok || s != c.Support {
				return false
			}
		}
		return resLo.Len() >= resHi.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequentSkipsNil(t *testing.T) {
	// Universe of 3 items over 4 records, the middle item masked out.
	tidsets := []*bitset.Set{
		bitset.FromIDs(4, 0, 1, 2),
		nil,
		bitset.FromIDs(4, 1, 2, 3),
	}
	res, err := mineRecords(tidsets, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range closedOf(res) {
		if c.Items.Contains(1) {
			t.Errorf("masked item leaked into %v", c.Items)
		}
	}
	if res.Len() == 0 {
		t.Fatal("expected CFIs from unmasked items")
	}
}

func TestDeterminism(t *testing.T) {
	d, sp := salary(t)
	a, err := Mine(d, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(d, sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic CFI count")
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Items(i).Equal(b.Items(i)) {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// closedOf reads a result's CFIs off its slabs, in id order, in the
// brute-force oracle's form without tidsets.
func closedOf(r *Result) []*ClosedSet {
	out := make([]*ClosedSet, r.Len())
	for i := range out {
		out[i] = &ClosedSet{Items: r.Items(i), Support: r.Support(i)}
	}
	return out
}

// intersection is the AND of items' tidsets over n records.
func intersection(tidsets []*bitset.Set, items itemset.Set, n int) *bitset.Set {
	s := bitset.New(n)
	s.Fill()
	for _, it := range items {
		s.And(tidsets[it])
	}
	return s
}

// mineRecords runs MineVectors over the arena Frequent lays out of
// tidsets, as Mine does.
func mineRecords(tidsets []*bitset.Set, numRecords, minCount int) (*Result, error) {
	items, vecs, err := Frequent(tidsets, numRecords, minCount)
	if err != nil {
		return nil, err
	}
	return MineVectors(context.Background(), items, vecs, numRecords, minCount, nil)
}
