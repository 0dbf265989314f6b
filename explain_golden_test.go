package colarm

import (
	"math"
	"testing"

	"colarm/internal/datagen"
)

// The cost model prices with the constant cost.UnitCosts and
// deterministic fixed-stride statistics probes, so Explain's output is
// a pure function of (dataset, primary support, query). These golden
// tests freeze that function on two datasets; a diff here means the
// optimizer's scoring changed, which must be a deliberate decision.

type goldenEstimate struct {
	plan       Plan
	cost       float64
	candidates float64
	qualified  float64
}

func checkEstimates(t *testing.T, label string, got []PlanEstimate, want []goldenEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b))
	}
	for i, w := range want {
		g := got[i]
		if g.Plan != w.plan {
			t.Fatalf("%s[%d]: plan %s, want %s (estimates must follow plan declaration order)", label, i, g.Plan, w.plan)
		}
		if !near(g.Cost, w.cost) || !near(g.Candidates, w.candidates) || !near(g.Qualified, w.qualified) {
			t.Errorf("%s[%d] %s: got cost=%.6f cand=%.6f qual=%.6f, want cost=%.6f cand=%.6f qual=%.6f",
				label, i, g.Plan, g.Cost, g.Candidates, g.Qualified, w.cost, w.candidates, w.qualified)
		}
	}

	// Structural invariants of the paper's cost model, independent of
	// the frozen numbers: selection push-up only removes work (S-E-V ≥
	// S-VS, SS-E-V ≥ SS-VS), the supported search can only shrink the
	// candidate stream, and the qualified-itemset estimate is a
	// property of the query, identical across the five MIP plans.
	byPlan := map[Plan]PlanEstimate{}
	for _, g := range got {
		byPlan[g.Plan] = g
	}
	if byPlan[SEV].Cost < byPlan[SVS].Cost {
		t.Errorf("%s: cost(S-E-V)=%.3f < cost(S-VS)=%.3f", label, byPlan[SEV].Cost, byPlan[SVS].Cost)
	}
	if byPlan[SSEV].Cost < byPlan[SSVS].Cost {
		t.Errorf("%s: cost(SS-E-V)=%.3f < cost(SS-VS)=%.3f", label, byPlan[SSEV].Cost, byPlan[SSVS].Cost)
	}
	if byPlan[SSEV].Candidates > byPlan[SEV].Candidates {
		t.Errorf("%s: supported search grew the candidate estimate: %.3f > %.3f",
			label, byPlan[SSEV].Candidates, byPlan[SEV].Candidates)
	}
	for _, p := range []Plan{SVS, SSEV, SSVS, SSEUV} {
		if byPlan[p].Qualified != byPlan[SEV].Qualified {
			t.Errorf("%s: qualified estimate differs across MIP plans: %s=%.6f, S-E-V=%.6f",
				label, p, byPlan[p].Qualified, byPlan[SEV].Qualified)
		}
	}
	if byPlan[ARM].Candidates != 0 {
		t.Errorf("%s: ARM consults no prestored candidates, estimate %.3f", label, byPlan[ARM].Candidates)
	}
	for _, g := range got {
		if g.Cost <= 0 || math.IsNaN(g.Cost) || math.IsInf(g.Cost, 0) {
			t.Errorf("%s: plan %s has degenerate cost %v", label, g.Plan, g.Cost)
		}
	}
}

func TestExplainGoldenSalary(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
	}
	ests, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	checkEstimates(t, "salary", ests, []goldenEstimate{
		{SEV, 1160.380231, 13, 0.830848},
		{SVS, 1056.380231, 13, 0.830848},
		{SSEV, 894.580231, 10, 0.830848},
		{SSVS, 814.580231, 10, 0.830848},
		{SSEUV, 893.380231, 10, 0.830848},
		{ARM, 124.383523, 0, 1.250000},
	})

	// The optimizer must execute the argmin of exactly these estimates.
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != ARM {
		t.Errorf("salary: optimizer chose %s, cheapest estimate is ARM", res.Stats.Plan)
	}
}

func TestExplainGoldenChessQuarter(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{rel: d}
	eng, err := Open(ds, Options{PrimarySupport: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.NumPartitions(); got != 8507 {
		t.Fatalf("quarter-scale chess index holds %d partitions, want 8507 (generator or miner drifted)", got)
	}
	attrs := ds.Attributes()
	vals, err := ds.Values(attrs[0])
	if err != nil {
		t.Fatal(err)
	}
	ests, err := eng.Explain(Query{
		Range:         map[string][]string{attrs[0]: vals[:1]},
		MinSupport:    0.85,
		MinConfidence: 0.90,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEstimates(t, "chess", ests, []goldenEstimate{
		{SEV, 991693.451473, 8507, 263.782946},
		{SVS, 923637.451473, 8507, 263.782946},
		{SSEV, 211609.297984, 395.674419, 263.782946},
		{SSVS, 208443.902636, 395.674419, 263.782946},
		{SSEUV, 210066.167752, 395.674419, 263.782946},
		{ARM, 44534.489551, 0, 2.071963},
	})
}
