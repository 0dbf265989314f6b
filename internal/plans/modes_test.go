package plans

import (
	"math/rand"
	"testing"

	"colarm/internal/itemset"
)

func TestCheckModeStrings(t *testing.T) {
	cases := []struct {
		mode CheckMode
		want string
	}{{AutoCheck, "auto"}, {ScanCheck, "scan"}, {BitmapCheck, "bitmap"}}
	for _, c := range cases {
		if c.mode.String() != c.want {
			t.Errorf("%v.String() = %q", c.mode, c.mode.String())
		}
	}
	if CheckMode(99).String() == "" {
		t.Error("unknown mode must still render")
	}
}

// TestCheckModesAgree runs the same query under all three modes, over
// every surface shape, and asserts identical answers — the modes are
// pure implementation variants of the record-level check.
func TestCheckModesAgree(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	reg, err := idx.RegionFromSelections(map[string][]string{"Location": {"Boston", "SFO"}})
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{Region: reg, MinSupport: 0.4, MinConfidence: 0.7}
	ex := NewExecutor(idx.Space)
	for _, s := range surfaceTable(t, rand.New(rand.NewSource(1)), idx, 0.18) {
		var ref *Result
		for _, mode := range []CheckMode{AutoCheck, ScanCheck, BitmapCheck} {
			ex.Mode = mode
			for _, k := range Kinds() {
				res, err := ex.Run(k, s.Surface, q)
				if err != nil {
					t.Fatalf("%s %v/%v: %v", s.name, mode, k, err)
				}
				if k != SSEUV {
					continue
				}
				if ref == nil {
					ref = res
					continue
				}
				if len(res.Rules) != len(ref.Rules) {
					t.Fatalf("%s %v: %d rules, want %d", s.name, mode, len(res.Rules), len(ref.Rules))
				}
				for i := range res.Rules {
					if res.Rules[i].Key() != ref.Rules[i].Key() ||
						res.Rules[i].SupportCount != ref.Rules[i].SupportCount {
						t.Fatalf("%s %v rule %d differs", s.name, mode, i)
					}
				}
			}
		}
	}
}

// TestStatsCounters sanity-checks the operator instrumentation whose
// cardinalities the cost model estimates.
func TestStatsCounters(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx)
	ex.Mode = ScanCheck
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
