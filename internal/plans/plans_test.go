package plans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/relation"
	"colarm/internal/rules"
)

func salaryIndex(t testing.TB, primary float64) *mip.Index {
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
	idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: primary, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus plan must error")
	}
}

func TestQueryValidation(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg := itemset.RegionFor(idx.Space)
	cases := []*Query{
		{Region: nil, MinSupport: 0.5, MinConfidence: 0.5},
		{Region: itemset.NewRegion([]int{2}), MinSupport: 0.5, MinConfidence: 0.5},
		{Region: reg, MinSupport: 0, MinConfidence: 0.5},
		{Region: reg, MinSupport: 1.5, MinConfidence: 0.5},
		{Region: reg, MinSupport: 0.5, MinConfidence: -0.1},
		{Region: reg, MinSupport: 0.5, MinConfidence: 1.1},
		{Region: reg, MinSupport: 0.5, MinConfidence: 0.5, ItemAttrs: []bool{true}},
	}
	for i, q := range cases {
		if _, err := ex.Run(SEV, s, q); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
}

// TestPaperLocalizedRule reproduces the paper's motivating example: for
// female employees in Seattle, the rule Age=30-40 ⇒ Salary=90K-120K
// holds with 75%% support and 100%% confidence, while the global rule
// Age=20-30 ⇒ Salary=90K-120K does not hold in the subset.
func TestPaperLocalizedRule(t *testing.T) {
	idx := salaryIndex(t, 0.18) // primary count 2: local patterns stored
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg, err := idx.RegionFromSelections(map[string][]string{
		"Location": {"Seattle"}, "Gender": {"F"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ageIdx := idx.Dataset.AttrIndex("Age")
	salIdx := idx.Dataset.AttrIndex("Salary")
	mask := make([]bool, idx.Space.NumAttrs())
	mask[ageIdx], mask[salIdx] = true, true

	q := &Query{Region: reg, ItemAttrs: mask, MinSupport: 0.70, MinConfidence: 0.95}
	res, err := ex.Run(SSEUV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsetSize != 4 {
		t.Fatalf("|DQ| = %d, want 4", res.Stats.SubsetSize)
	}
	a1, _ := idx.Space.ParseItem("Age=30-40")
	s2, _ := idx.Space.ParseItem("Salary=90K-120K")
	found := false
	for _, r := range res.Rules {
		if r.Antecedent.Equal(itemset.NewSet(a1)) && r.Consequent.Equal(itemset.NewSet(s2)) {
			found = true
			if math.Abs(r.Support-0.75) > 1e-9 {
				t.Errorf("R_L support = %v, want 0.75", r.Support)
			}
			if math.Abs(r.Confidence-1.0) > 1e-9 {
				t.Errorf("R_L confidence = %v, want 1.0", r.Confidence)
			}
		}
	}
	if !found {
		for _, r := range res.Rules {
			t.Logf("rule: %s", r.Format(idx.Space))
		}
		t.Fatal("localized rule (Age=30-40 => Salary=90K-120K) not found")
	}
	// The global rule A0→S2 must NOT hold here (support 0 in subset).
	a0, _ := idx.Space.ParseItem("Age=20-30")
	for _, r := range res.Rules {
		if r.Antecedent.Contains(a0) {
			t.Errorf("global-rule antecedent leaked into local result: %s", r.Format(idx.Space))
		}
	}
}

func TestEmptySubsetYieldsNoRules(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	// Gender=M AND Title=QA Mgr never co-occur.
	reg, err := idx.RegionFromSelections(map[string][]string{
		"Gender": {"M"}, "Title": {"QA Mgr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		res, err := ex.Run(k, s, &Query{Region: reg, MinSupport: 0.5, MinConfidence: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(res.Rules) != 0 || res.Stats.SubsetSize != 0 {
			t.Errorf("%v: empty subset produced %d rules", k, len(res.Rules))
		}
	}
}

func TestFullDomainQueryEqualsGlobalMining(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.45, MinConfidence: 0.8}
	res, err := ex.Run(SSEUV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsetSize != 11 {
		t.Fatalf("|DQ| = %d", res.Stats.SubsetSize)
	}
	// The paper's global rule R_G = (Age=20-30 ⇒ Salary=90K-120K) with
	// support 45% and confidence 83%.
	a0, _ := idx.Space.ParseItem("Age=20-30")
	s2, _ := idx.Space.ParseItem("Salary=90K-120K")
	found := false
	for _, r := range res.Rules {
		if r.Antecedent.Equal(itemset.NewSet(a0)) && r.Consequent.Equal(itemset.NewSet(s2)) {
			found = true
			if r.SupportCount != 5 || r.AntecedentCount != 6 {
				t.Errorf("R_G counts = %d/%d, want 5/6", r.SupportCount, r.AntecedentCount)
			}
		}
	}
	if !found {
		t.Error("global rule R_G not found on full-domain query")
	}
	// All candidates must be classified Contained on a full-domain query
	// and no record-level support checks should be needed for SS-E-U-V.
	if res.Stats.PartialOverlap != 0 {
		t.Errorf("full-domain query saw %d partial MIPs", res.Stats.PartialOverlap)
	}
}

func TestContainedShortcutSkipsChecks(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.45, MinConfidence: 0.8}

	resSEV, err := ex.Run(SEV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	resSSEUV, err := ex.Run(SSEUV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if resSSEUV.Stats.SupportChecks >= resSEV.Stats.SupportChecks {
		t.Errorf("SS-E-U-V did %d support checks, S-E-V %d — shortcut ineffective",
			resSSEUV.Stats.SupportChecks, resSEV.Stats.SupportChecks)
	}
}

func TestSupportedSearchPrunes(t *testing.T) {
	idx := salaryIndex(t, 0.1)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg, err := idx.RegionFromSelections(map[string][]string{"Location": {"Seattle"}})
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Region: reg, MinSupport: 0.9, MinConfidence: 0.9}
	resS, err := ex.Run(SEV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	resSS, err := ex.Run(SSEV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if resSS.Stats.Candidates > resS.Stats.Candidates {
		t.Errorf("SS emitted more candidates (%d) than S (%d)", resSS.Stats.Candidates, resS.Stats.Candidates)
	}
	// Identical answers regardless.
	assertSameRules(t, resS.Rules, resSS.Rules, "SEV vs SSEV")
}

func assertSameRules(t *testing.T, a, b []rules.Rule, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rules", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("%s: rule %d key %s vs %s", label, i, a[i].Key(), b[i].Key())
		}
		if a[i].SupportCount != b[i].SupportCount ||
			a[i].AntecedentCount != b[i].AntecedentCount ||
			math.Abs(a[i].Confidence-b[i].Confidence) > 1e-12 {
			t.Fatalf("%s: rule %d measures differ: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// randomIndex builds a random dataset and MIP-index for property tests.
func randomIndex(r *rand.Rand) (*mip.Index, error) {
	nAttrs := 2 + r.Intn(3)
	names := make([]string, nAttrs)
	cards := make([]int, nAttrs)
	for i := range names {
		names[i] = string(rune('A' + i))
		cards[i] = 2 + r.Intn(4)
	}
	b := relation.NewBuilder("rand", names...)
	for a := 0; a < nAttrs; a++ {
		for v := 0; v < cards[a]; v++ {
			b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
		}
	}
	m := 10 + r.Intn(40)
	for i := 0; i < m; i++ {
		row := make([]int, nAttrs)
		for a := range row {
			// Skewed values so correlations (and CFIs) arise.
			if r.Intn(3) > 0 {
				row[a] = r.Intn(2)
			} else {
				row[a] = r.Intn(cards[a])
			}
		}
		if err := b.AddRecordIdx(row...); err != nil {
			return nil, err
		}
	}
	return mip.Build(b.Build(), mip.Options{
		PrimarySupport: 0.05 + r.Float64()*0.2,
		Fanout:         3 + r.Intn(6),
	})
}

func randomQuery(r *rand.Rand, idx *mip.Index) *Query {
	reg := itemset.RegionFor(idx.Space)
	n := idx.Space.NumAttrs()
	for a := 0; a < n; a++ {
		if r.Intn(2) == 0 {
			continue
		}
		card := idx.Space.Cardinality(a)
		var vals []int
		for v := 0; v < card; v++ {
			if r.Intn(2) == 0 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			vals = []int{r.Intn(card)}
		}
		if err := reg.Restrict(a, vals); err != nil {
			panic(err)
		}
	}
	var mask []bool
	if r.Intn(2) == 0 {
		mask = make([]bool, n)
		cnt := 0
		for a := range mask {
			if r.Intn(3) > 0 {
				mask[a] = true
				cnt++
			}
		}
		if cnt < 2 {
			mask[0], mask[1] = true, true
		}
	}
	return &Query{
		Region:        reg,
		ItemAttrs:     mask,
		MinSupport:    0.2 + r.Float64()*0.7,
		MinConfidence: 0.3 + r.Float64()*0.6,
	}
}

// mipKinds are the five index-based plans, which must agree exactly.
func mipKinds() []Kind { return []Kind{SEV, SVS, SSEV, SSVS, SSEUV} }

// TestQuickPlanEquivalence is the central correctness invariant of the
// paper: the five MIP-index plans answer every localized mining query
// identically, and the from-scratch ARM baseline covers that answer —
// every index rule reappears in ARM's output with the same antecedent,
// support count and confidence (its consequent may extend to the local
// closure).
func TestQuickPlanEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			return false
		}
		ex, s := NewExecutor(idx.Space), NewSurface(idx)
		for trial := 0; trial < 3; trial++ {
			q := randomQuery(r, idx)
			var ref *Result
			for _, k := range mipKinds() {
				res, err := ex.Run(k, s, q)
				if err != nil {
					t.Logf("seed %d plan %v: %v", seed, k, err)
					return false
				}
				if ref == nil {
					ref = res
					continue
				}
				if len(res.Rules) != len(ref.Rules) {
					t.Logf("seed %d trial %d: %v emitted %d rules, %v emitted %d",
						seed, trial, k, len(res.Rules), ref.Stats.Plan, len(ref.Rules))
					return false
				}
				for i := range res.Rules {
					if res.Rules[i].Key() != ref.Rules[i].Key() ||
						res.Rules[i].SupportCount != ref.Rules[i].SupportCount ||
						math.Abs(res.Rules[i].Confidence-ref.Rules[i].Confidence) > 1e-12 {
						t.Logf("seed %d trial %d plan %v rule %d differs", seed, trial, k, i)
						return false
					}
				}
			}
			// ARM cover: index each ARM rule by antecedent.
			arm, err := ex.Run(ARM, s, q)
			if err != nil {
				t.Logf("seed %d ARM: %v", seed, err)
				return false
			}
			type sig struct {
				supp int
				conf float64
			}
			armByAnte := map[string][]sig{}
			for _, ar := range arm.Rules {
				armByAnte[ar.Antecedent.Key()] = append(armByAnte[ar.Antecedent.Key()],
					sig{ar.SupportCount, ar.Confidence})
			}
			for _, mr := range ref.Rules {
				covered := false
				for _, s := range armByAnte[mr.Antecedent.Key()] {
					if s.supp == mr.SupportCount && math.Abs(s.conf-mr.Confidence) < 1e-9 {
						covered = true
						break
					}
				}
				if !covered {
					t.Logf("seed %d trial %d: MIP rule %s=>%s (supp %d conf %.3f) not covered by ARM",
						seed, trial, mr.Antecedent.Key(), mr.Consequent.Key(), mr.SupportCount, mr.Confidence)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickARMRulesValid verifies every ARM rule against brute-force
// recounts (ARM may legitimately exceed the index plans' answer, but
// each of its rules must satisfy the thresholds exactly).
func TestQuickARMRulesValid(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			return false
		}
		ex, s := NewExecutor(idx.Space), NewSurface(idx)
		q := randomQuery(r, idx)
		res, err := ex.Run(ARM, s, q)
		if err != nil {
			return false
		}
		d := idx.Dataset
		count := func(s itemset.Set) int {
			n := 0
			for rec := 0; rec < d.NumRecords(); rec++ {
				if !q.Region.ContainsPoint(d.Record(rec)) {
					continue
				}
				all := true
				for _, it := range s {
					if d.Value(rec, idx.Space.AttrOf(it)) != idx.Space.ValueOf(it) {
						all = false
						break
					}
				}
				if all {
					n++
				}
			}
			return n
		}
		mask := q.itemMask(idx.Space.NumAttrs())
		for _, rule := range res.Rules {
			body := rule.Antecedent.Union(rule.Consequent)
			if count(body) != rule.SupportCount || count(rule.Antecedent) != rule.AntecedentCount {
				return false
			}
			if rule.SupportCount < res.Stats.MinCount {
				return false
			}
			if rule.Confidence < q.MinConfidence-1e-12 {
				return false
			}
			for _, it := range body {
				if !mask[idx.Space.AttrOf(it)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRulesSatisfyThresholds checks every emitted rule against a
// brute-force recount of its supports within the focal subset.
func TestQuickRulesSatisfyThresholds(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			return false
		}
		ex, s := NewExecutor(idx.Space), NewSurface(idx)
		q := randomQuery(r, idx)
		res, err := ex.Run(SSEUV, s, q)
		if err != nil {
			return false
		}
		d := idx.Dataset
		count := func(s itemset.Set, inSubset bool) int {
			n := 0
			for rec := 0; rec < d.NumRecords(); rec++ {
				if inSubset && !q.Region.ContainsPoint(d.Record(rec)) {
					continue
				}
				all := true
				for _, it := range s {
					a := idx.Space.AttrOf(it)
					if d.Value(rec, a) != idx.Space.ValueOf(it) {
						all = false
						break
					}
				}
				if all {
					n++
				}
			}
			return n
		}
		minCount := res.Stats.MinCount
		for _, rule := range res.Rules {
			body := rule.Antecedent.Union(rule.Consequent)
			sc := count(body, true)
			ac := count(rule.Antecedent, true)
			if sc != rule.SupportCount || ac != rule.AntecedentCount {
				return false
			}
			if sc < minCount {
				return false
			}
			if float64(sc)/float64(ac) < q.MinConfidence-1e-12 {
				return false
			}
			// Item-attribute compliance.
			mask := q.itemMask(idx.Space.NumAttrs())
			for _, it := range body {
				if !mask[idx.Space.AttrOf(it)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// itemMask returns the effective item-attribute mask (all-true when the
// clause was omitted).
func (q *Query) itemMask(n int) []bool {
	if q.ItemAttrs != nil {
		return q.ItemAttrs
	}
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	return mask
}

// TestStatsCounters sanity-checks the operator instrumentation whose
// cardinalities the cost model estimates.
func TestStatsCounters(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.5}
	res, err := ex.Run(SEV, s, q)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SubsetSize != 11 {
		t.Errorf("SubsetSize = %d", st.SubsetSize)
	}
	if st.Candidates != st.Contained+st.PartialOverlap {
		t.Errorf("candidates %d != contained %d + partial %d", st.Candidates, st.Contained, st.PartialOverlap)
	}
	if st.RNodesVisited == 0 || st.REntriesChecked == 0 {
		t.Error("search counters empty")
	}
	if st.Qualified > st.Candidates {
		t.Error("qualified exceeds candidates")
	}
	if st.RulesEmitted != len(res.Rules) {
		t.Errorf("RulesEmitted %d != %d", st.RulesEmitted, len(res.Rules))
	}
	if st.Duration <= 0 {
		t.Error("duration not recorded")
	}
	// Full-domain region: every candidate contained.
	if st.PartialOverlap != 0 {
		t.Errorf("full-domain query saw %d partial MIPs", st.PartialOverlap)
	}
	// ARM stats.
	resARM, err := ex.Run(ARM, s, q)
	if err != nil {
		t.Fatal(err)
	}
	if resARM.Stats.SubsetSize != 11 {
		t.Errorf("ARM SubsetSize = %d", resARM.Stats.SubsetSize)
	}
	if resARM.Stats.ARMFrequentItemsets == 0 {
		t.Error("ARM mined nothing")
	}
}

func TestUnknownKindError(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	reg := itemset.RegionFor(idx.Space)
	q := &Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.5}
	if _, err := ex.Run(Kind(42), s, q); err == nil {
		t.Error("unknown kind must error")
	}
}
