package cost

import (
	"math/rand"
	"testing"

	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/relation"
)

// skewedDataset builds a dataset with correlated blocks so CFIs exist.
func skewedDataset(t testing.TB, seed int64, m int) *relation.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nAttrs := 4
	b := relation.NewBuilder("skewed", "A", "B", "C", "D")
	for a := 0; a < nAttrs; a++ {
		for v := 0; v < 4; v++ {
			b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
		}
	}
	for i := 0; i < m; i++ {
		row := make([]int, nAttrs)
		base := r.Intn(2)
		for a := range row {
			if r.Intn(4) > 0 {
				row[a] = base
			} else {
				row[a] = r.Intn(4)
			}
		}
		if err := b.AddRecordIdx(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// fixture is a model over one frozen index with the executor whose
// focal subsets it prices.
type fixture struct {
	mo   *Model
	ex   *plans.Executor
	idx  *mip.Index
	surf *plans.Surface
}

func buildModel(t testing.TB, m int) fixture {
	t.Helper()
	d := skewedDataset(t, 42, m)
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.1, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{NewModel(idx), plans.NewExecutor(idx.Space), idx, plans.NewSurface(idx)}
}

func (fx fixture) focus(q *plans.Query) *plans.Focal { return fx.ex.Focus(fx.surf, q) }

func TestNewModelStats(t *testing.T) {
	fx := buildModel(t, 300)
	mo := fx.mo
	if mo.avgLen <= 1 {
		t.Errorf("avgLen = %v, want > 1", mo.avgLen)
	}
	for a, f := range mo.attrFrac {
		if f < 0 || f > 1 {
			t.Errorf("attrFrac[%d] = %v", a, f)
		}
	}
}

func TestEstimateShapes(t *testing.T) {
	fx := buildModel(t, 300)
	reg := itemset.RegionFor(fx.idx.Space)
	if err := reg.Restrict(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.8}
	ests := fx.mo.Estimate(fx.focus(q), q)
	if len(ests) != 6 {
		t.Fatalf("estimates = %d", len(ests))
	}
	byPlan := map[plans.Kind]Estimate{}
	for _, e := range ests {
		if e.Total < 0 {
			t.Errorf("%v total negative: %v", e.Plan, e.Total)
		}
		byPlan[e.Plan] = e
	}
	// The supported search must never expect more candidates than the
	// plain search.
	if byPlan[plans.SSEV].Candidates > byPlan[plans.SEV].Candidates+1e-9 {
		t.Errorf("SS candidates %v > S candidates %v",
			byPlan[plans.SSEV].Candidates, byPlan[plans.SEV].Candidates)
	}
	// SS-E-U-V must not cost more in ELIMINATE than SS-E-V (the
	// contained shortcut removes checks).
	if byPlan[plans.SSEUV].Eliminate > byPlan[plans.SSEV].Eliminate+1e-9 {
		t.Errorf("SSEUV eliminate %v > SSEV eliminate %v",
			byPlan[plans.SSEUV].Eliminate, byPlan[plans.SSEV].Eliminate)
	}
	// Contained estimate bounded by candidates.
	for _, e := range ests {
		if e.Contained > e.Candidates+1e-9 {
			t.Errorf("%v contained %v > candidates %v", e.Plan, e.Contained, e.Candidates)
		}
	}
}

func TestEmptyRegionEstimatesZero(t *testing.T) {
	fx := buildModel(t, 100)
	reg := itemset.RegionFor(fx.idx.Space)
	// Make an empty region: restrict to a value then to nothing.
	if err := reg.Restrict(0, nil); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.8}
	for _, e := range fx.mo.Estimate(fx.focus(q), q) {
		if e.Total != 0 {
			t.Errorf("%v estimate on empty region = %v", e.Plan, e.Total)
		}
	}
}

func TestChooseReturnsArgmin(t *testing.T) {
	fx := buildModel(t, 300)
	reg := itemset.RegionFor(fx.idx.Space)
	q := &plans.Query{Region: reg, MinSupport: 0.5, MinConfidence: 0.9}
	best, ests := fx.mo.Choose(fx.focus(q), q)
	for _, e := range ests {
		if e.Plan == best {
			continue
		}
		var bt float64
		for _, x := range ests {
			if x.Plan == best {
				bt = x.Total
			}
		}
		if e.Total < bt {
			t.Errorf("Choose picked %v (%v) but %v is cheaper (%v)", best, bt, e.Plan, e.Total)
		}
	}
}

// TestCostTracksMeasuredOrdering checks the model's key fitness-for-
// purpose property on a moderate dataset: across a spread of queries,
// the plan the model picks should rarely be much worse than the best
// measured plan (the paper reports <=5% regret on mispicks; we allow a
// generous factor on this small synthetic workload).
func TestCostTracksMeasuredOrdering(t *testing.T) {
	fx := buildModel(t, 600)
	r := rand.New(rand.NewSource(7))
	queries := 0
	regressions := 0
	for trial := 0; trial < 12; trial++ {
		reg := itemset.RegionFor(fx.idx.Space)
		for a := 0; a < fx.idx.Space.NumAttrs(); a++ {
			if r.Intn(2) == 0 {
				continue
			}
			card := fx.idx.Space.Cardinality(a)
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
				t.Fatal(err)
			}
		}
		q := &plans.Query{Region: reg, MinSupport: 0.2 + r.Float64()*0.6, MinConfidence: 0.8}
		chosen, _ := fx.mo.Choose(fx.focus(q), q)

		// Measure all plans by operation counts (deterministic proxy
		// for time: support checks dominate).
		work := map[plans.Kind]int{}
		for _, k := range plans.Kinds() {
			res, err := fx.ex.Run(k, fx.surf, q)
			if err != nil {
				t.Fatal(err)
			}
			w := res.Stats.SupportChecks*10 + res.Stats.REntriesChecked +
				res.Stats.RNodesVisited + res.Stats.ARMFrequentItemsets*12 +
				res.Stats.OracleCalls
			work[k] = w
		}
		best := chosen
		for k, w := range work {
			if w < work[best] {
				best = k
			}
		}
		queries++
		if work[chosen] > 4*work[best]+400 {
			regressions++
			t.Logf("trial %d: chose %v (work %d) vs best %v/%d", trial, chosen, work[chosen], best, work[best])
		}
	}
	if regressions > queries/3 {
		t.Errorf("optimizer badly mispredicted %d/%d queries", regressions, queries)
	}
}
