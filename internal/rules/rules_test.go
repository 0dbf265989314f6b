package rules

import (
	"math"
	"math/rand"
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
	// Sorted by descending confidence.
	for i := 1; i < len(got); i++ {
		if got[i-1].Confidence < got[i].Confidence {
			t.Error("rules not sorted by confidence")
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

func TestDedupeAndSort(t *testing.T) {
	a := Rule{Antecedent: itemset.NewSet(1), Consequent: itemset.NewSet(2), Confidence: 0.9, SupportCount: 4}
	b := Rule{Antecedent: itemset.NewSet(1), Consequent: itemset.NewSet(2), Confidence: 0.9, SupportCount: 4}
	c := Rule{Antecedent: itemset.NewSet(2), Consequent: itemset.NewSet(1), Confidence: 0.95, SupportCount: 4}
	rs := Dedupe([]Rule{a, b, c})
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
