package rules

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
)

// oracleFromTidsets builds a SupportOracle from per-item tidsets
// restricted to a subset bitmap.
func oracleFromTidsets(tidsets []*bitset.Set, subset *bitset.Set) SupportOracle {
	return func(s itemset.Set) int {
		if len(s) == 0 {
			return -1
		}
		acc := subset.Clone()
		for _, it := range s {
			acc.And(tidsets[it])
		}
		return acc.Count()
	}
}

// bruteRules enumerates every rule X⇒Y with X∪Y=items by exhaustive
// subset enumeration — the oracle for Generate.
func bruteRules(items itemset.Set, suppCount, subsetSize int, minConf float64, oracle SupportOracle, maxCons int) []Rule {
	n := len(items)
	var out []Rule
	for mask := 1; mask < (1<<n)-1; mask++ {
		var y itemset.Set
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				y = append(y, items[i])
			}
		}
		if maxCons > 0 && len(y) > maxCons {
			continue
		}
		x := items.Minus(y)
		xc := oracle(x)
		if xc <= 0 {
			continue
		}
		conf := float64(suppCount) / float64(xc)
		if conf >= minConf {
			out = append(out, Rule{Antecedent: x, Consequent: y, SupportCount: suppCount,
				AntecedentCount: xc, ConsequentCount: oracle(y), SubsetSize: subsetSize,
				Support: float64(suppCount) / float64(subsetSize), Confidence: conf})
		}
	}
	return out
}

func TestGenerateSimple(t *testing.T) {
	// 10 records; items 0,1,2. tidsets chosen so {0,1,2} has supp 4.
	ts := []*bitset.Set{
		bitset.FromIDs(10, 0, 1, 2, 3, 4, 5), // item 0: 6
		bitset.FromIDs(10, 0, 1, 2, 3, 6, 7), // item 1: 6
		bitset.FromIDs(10, 0, 1, 2, 3, 8),    // item 2: 5
	}
	full := bitset.New(10)
	full.Fill()
	oracle := oracleFromTidsets(ts, full)
	items := itemset.NewSet(0, 1, 2)
	got := Generate(items, 4, 10, 0.6, oracle, Options{})
	// supp({0,1})=4, supp({0,2})=4, supp({1,2})=4, supp({0})=6 ...
	// conf({0,1}⇒{2}) = 4/4 = 1.0, conf({0}⇒{1,2}) = 4/6 ≈ .67, etc.
	want := bruteRules(items, 4, 10, 0.6, oracle, 0)
	if len(got) != len(want) {
		t.Fatalf("got %d rules, want %d", len(got), len(want))
	}
	gm := map[string]Rule{}
	for _, r := range got {
		gm[r.Key()] = r
	}
	for _, w := range want {
		g, ok := gm[w.Key()]
		if !ok {
			t.Errorf("missing rule %s", w.Key())
			continue
		}
		if g.AntecedentCount != w.AntecedentCount || math.Abs(g.Confidence-w.Confidence) > 1e-12 {
			t.Errorf("rule %s mismatch: %+v vs %+v", w.Key(), g, w)
		}
	}
	// Generation order: consequents level by level.
	for i := 1; i < len(got); i++ {
		if len(got[i-1].Consequent) > len(got[i].Consequent) {
			t.Error("rules not in level-wise generation order")
		}
	}
}

func TestGenerateDegenerate(t *testing.T) {
	oracle := func(itemset.Set) int { return 5 }
	if rs := Generate(itemset.NewSet(1), 3, 10, 0.5, oracle, Options{}); rs != nil {
		t.Error("single-item itemset yields no rules")
	}
	if rs := Generate(itemset.NewSet(1, 2), 0, 10, 0.5, oracle, Options{}); rs != nil {
		t.Error("zero support yields no rules")
	}
	if rs := Generate(itemset.NewSet(1, 2), 3, 0, 0.5, oracle, Options{}); rs != nil {
		t.Error("zero subset yields no rules")
	}
}

func TestGenerateMaxConsequent(t *testing.T) {
	ts := []*bitset.Set{
		bitset.FromIDs(8, 0, 1, 2, 3, 4),
		bitset.FromIDs(8, 0, 1, 2, 3, 5),
		bitset.FromIDs(8, 0, 1, 2, 3, 6),
	}
	full := bitset.New(8)
	full.Fill()
	oracle := oracleFromTidsets(ts, full)
	items := itemset.NewSet(0, 1, 2)
	rs := Generate(items, 4, 8, 0.0, oracle, Options{MaxConsequent: 1})
	for _, r := range rs {
		if len(r.Consequent) > 1 {
			t.Errorf("consequent %v exceeds cap", r.Consequent)
		}
	}
	if len(rs) != 3 {
		t.Errorf("got %d rules with 1-item consequents, want 3", len(rs))
	}
}

// TestGenerateRulesOwnTheirItems checks that a returned rule's item
// slices are its own: every antecedent and consequent still matches the
// brute-force rules after the rest of the call reused its scratch, and
// appending to one rule's slices changes neither the itemset Generate
// was given nor any other rule.
func TestGenerateRulesOwnTheirItems(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m = 64
	ts := make([]*bitset.Set, 6)
	for i := range ts {
		ts[i] = bitset.New(m)
		for rec := 0; rec < m; rec++ {
			if r.Intn(8) != 0 {
				ts[i].Add(rec)
			}
		}
	}
	full := bitset.New(m)
	full.Fill()
	oracle := oracleFromTidsets(ts, full)
	items := itemset.NewSet(0, 1, 2, 3, 4, 5)
	body := items.Clone()
	supp := oracle(items)
	got := Generate(items, supp, m, 0, oracle, Options{})
	want := bruteRules(items, supp, m, 0, oracle, 0)
	if len(got) != len(want) || len(got) != 62 {
		t.Fatalf("got %d rules, want %d (every split of 6 items)", len(got), len(want))
	}
	keys := make(map[string]bool, len(want))
	for _, w := range want {
		keys[w.Key()] = true
	}
	snap := make([]Rule, len(got))
	for i, g := range got {
		if !keys[g.Key()] || !g.Antecedent.Union(g.Consequent).Equal(items) {
			t.Fatalf("rule %d is %s, not a split of %v: a later candidate overwrote it", i, g.Key(), items)
		}
		snap[i] = g
		snap[i].Antecedent, snap[i].Consequent = g.Antecedent.Clone(), g.Consequent.Clone()
	}
	for i := range got {
		_ = append(got[i].Antecedent, 99, 99)
		_ = append(got[i].Consequent, 99, 99)
		if !items.Equal(body) {
			t.Fatalf("appending to rule %d changed the itemset to %v", i, items)
		}
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("appending to one rule's slices changed another rule")
	}
}

func TestMeasures(t *testing.T) {
	r := Rule{
		SupportCount:    4,
		AntecedentCount: 5,
		ConsequentCount: 8,
		SubsetSize:      10,
		Support:         0.4,
		Confidence:      0.8,
	}
	if lift := r.Lift(); math.Abs(lift-1.0) > 1e-12 {
		t.Errorf("Lift = %v, want 1.0", lift)
	}
	if cos := r.Cosine(); math.Abs(cos-4/math.Sqrt(40)) > 1e-12 {
		t.Errorf("Cosine = %v", cos)
	}
	if k := r.Kulczynski(); math.Abs(k-0.5*(0.8+0.5)) > 1e-12 {
		t.Errorf("Kulczynski = %v", k)
	}
	if mc := r.MaxConf(); math.Abs(mc-0.8) > 1e-12 {
		t.Errorf("MaxConf = %v", mc)
	}
	// Zero-division safety.
	z := Rule{}
	if z.Lift() != 0 || z.Cosine() != 0 || z.Kulczynski() != 0 || z.MaxConf() != 0 {
		t.Error("zero rule measures must be 0")
	}
}

// dedupe drops repeated rules (same antecedent and consequent), keeping
// the first: the merge the plans no longer need, because their rules are
// unique by construction.
func dedupe(rs []Rule) []Rule {
	seen := make(map[string]bool, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func TestDedupeAndSort(t *testing.T) {
	a := Rule{Antecedent: itemset.NewSet(1), Consequent: itemset.NewSet(2), Confidence: 0.9, SupportCount: 4}
	b := Rule{Antecedent: itemset.NewSet(1), Consequent: itemset.NewSet(2), Confidence: 0.9, SupportCount: 4}
	c := Rule{Antecedent: itemset.NewSet(2), Consequent: itemset.NewSet(1), Confidence: 0.95, SupportCount: 4}
	rs := dedupe([]Rule{a, b, c})
	if len(rs) != 2 {
		t.Fatalf("Dedupe left %d rules", len(rs))
	}
	SortCanonical(rs)
	if rs[0].Confidence != 0.95 {
		t.Error("SortCanonical order wrong")
	}
}

// Property: Generate equals brute-force enumeration for random oracles.
// This validates the ap-genrules consequent pruning (anti-monotonicity).
func TestQuickGenerateEqualsBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 6 + r.Intn(20)
		nItems := 2 + r.Intn(4)
		ts := make([]*bitset.Set, nItems)
		for i := range ts {
			s := bitset.New(m)
			for rec := 0; rec < m; rec++ {
				if r.Intn(4) != 0 { // dense-ish so intersections stay nonzero
					s.Add(rec)
				}
			}
			ts[i] = s
		}
		subset := bitset.New(m)
		for rec := 0; rec < m; rec++ {
			if r.Intn(2) == 0 {
				subset.Add(rec)
			}
		}
		if subset.Count() == 0 {
			subset.Add(0)
		}
		oracle := oracleFromTidsets(ts, subset)
		var items itemset.Set
		for i := 0; i < nItems; i++ {
			items = append(items, itemset.Item(i))
		}
		suppCount := oracle(items)
		if suppCount <= 0 {
			return true // nothing to generate; trivially consistent
		}
		minConf := float64(r.Intn(11)) / 10
		maxCons := r.Intn(nItems)
		got := Generate(items, suppCount, subset.Count(), minConf, oracle, Options{MaxConsequent: maxCons})
		want := bruteRules(items, suppCount, subset.Count(), minConf, oracle, maxCons)
		if len(got) != len(want) {
			return false
		}
		gm := map[string]Rule{}
		for _, g := range got {
			gm[g.Key()] = g
		}
		for _, w := range want {
			g, ok := gm[w.Key()]
			if !ok || g.AntecedentCount != w.AntecedentCount ||
				g.ConsequentCount != w.ConsequentCount ||
				math.Abs(g.Confidence-w.Confidence) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// sortByStringKeys is SortCanonical as it was before the byte arena: one
// string key per rule, sort.Slice over an index permutation.
func sortByStringKeys(rs []Rule) {
	keys := make([]string, len(rs))
	for i := range rs {
		keys[i] = rs[i].Antecedent.Key() + "=>" + rs[i].Consequent.Key()
	}
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if rs[i].Confidence != rs[j].Confidence {
			return rs[i].Confidence > rs[j].Confidence
		}
		if rs[i].SupportCount != rs[j].SupportCount {
			return rs[i].SupportCount > rs[j].SupportCount
		}
		return keys[i] < keys[j]
	})
	sorted := make([]Rule, len(rs))
	for a, i := range order {
		sorted[a] = rs[i]
	}
	copy(rs, sorted)
}

// randomRules draws n distinct rules whose item ids have one, two or
// three digits — so key order is byte order, "1,5" before "10" — under
// few confidence and support values, so most comparisons reach the key.
func randomRules(r *rand.Rand, n int) []Rule {
	confs := []float64{1, 0.9, 0.875, 2.0 / 3}
	pick := func() itemset.Item {
		switch r.Intn(3) {
		case 0:
			return itemset.Item(r.Intn(10))
		case 1:
			return itemset.Item(10 + r.Intn(90))
		}
		return itemset.Item(100 + r.Intn(900))
	}
	seen := make(map[string]bool, n)
	out := make([]Rule, 0, n)
	for len(out) < n {
		var items itemset.Set
		for k := 2 + r.Intn(4); len(items) < k; {
			items = itemset.NewSet(append(items, pick())...)
		}
		y := itemset.Set{items[r.Intn(len(items))]}
		for _, it := range items {
			if len(y) < len(items)-1 && r.Intn(4) == 0 {
				y = itemset.NewSet(append(y, it)...)
			}
		}
		rule := Rule{Antecedent: items.Minus(y), Consequent: y,
			SupportCount: 40 + r.Intn(3), AntecedentCount: 50 + r.Intn(9), ConsequentCount: 60,
			SubsetSize: 100, Confidence: confs[r.Intn(len(confs))]}
		rule.Support = float64(rule.SupportCount) / 100
		if k := rule.Key(); !seen[k] {
			seen[k] = true
			out = append(out, rule)
		}
	}
	return out
}

// TestSortCanonicalMatchesStringKeys holds the byte-arena sort to the
// string-key sort it replaced, rule for rule.
func TestSortCanonicalMatchesStringKeys(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		rs := randomRules(r, 1+r.Intn(300))
		want := append([]Rule(nil), rs...)
		sortByStringKeys(want)
		SortCanonical(rs)
		if !reflect.DeepEqual(rs, want) {
			t.Fatalf("seed %d: %d rules sort differently from the string-key order", seed, len(rs))
		}
	}
}

// BenchmarkSortCanonical sorts 800 rules, the size of a mine_auto reply,
// tied on confidence and support as often as real answers are: with the
// byte arena and, for comparison, with the string keys it replaced.
func BenchmarkSortCanonical(b *testing.B) {
	rs := randomRules(rand.New(rand.NewSource(1)), 800)
	for _, bc := range []struct {
		name string
		sort func([]Rule)
	}{{"arena", SortCanonical}, {"stringkeys", sortByStringKeys}} {
		b.Run(bc.name, func(b *testing.B) {
			work := make([]Rule, len(rs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, rs)
				bc.sort(work)
			}
		})
	}
}
