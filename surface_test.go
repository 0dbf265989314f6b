package colarm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"colarm/internal/cost"
	"colarm/internal/datagen"
	"colarm/internal/plans"
	"colarm/internal/pool"
)

// gateDataset generates a dataset large enough that localized queries
// under the base primary support fall below the applicability gate.
func gateDataset(t testing.TB) *Dataset {
	t.Helper()
	cfg := datagen.Config{
		Name:    "gate",
		Records: 1200,
		Attrs: []datagen.AttrSpec{
			{Name: "A", Cardinality: 4, Align: []float64{0.9, 0.1}},
			{Name: "B", Cardinality: 4, Align: []float64{0.8, 0.2}},
			{Name: "C", Cardinality: 4, Align: []float64{0.7, 0.3}},
			{Name: "D", Cardinality: 4, Align: []float64{0.6, 0.4}},
		},
		Clusters: []float64{0.5, 0.5},
		Skew:     0.8,
		Seed:     7,
	}
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Dataset{rel: d}
}

// focal resolves q the way a request does.
func focal(t testing.TB, eng *Engine, q Query) *plans.Focal {
	t.Helper()
	pq, err := eng.buildQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return resolved(t, eng, pq)
}

// resolved is eng.resolve(pq), failing t on an error.
func resolved(t testing.TB, eng *Engine, pq *plans.Query) *plans.Focal {
	t.Helper()
	f, err := eng.resolve(pq)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// lowSupportQuery builds a query whose localized threshold falls below
// the base index's primary count, so the applicability gate forces ARM.
func lowSupportQuery(t testing.TB, eng *Engine) Query {
	t.Helper()
	a := eng.idx.Dataset.Attrs[0]
	q := Query{Range: map[string][]string{a.Name: a.Values[:2]}, MinSupport: 0.25, MinConfidence: 0.9}
	if f := focal(t, eng, q); f.Applicable() {
		t.Fatalf("fixture drifted: localized count %d (subset %d) must fall below primary count %d", f.MinCount, f.Size, f.Surface.PrimaryCount)
	}
	return q
}

// countResolutions wraps the engine's surface source in a counter.
func countResolutions(e *Engine) *int {
	n := new(int)
	src := e.surface
	e.surface = func() (*plans.Surface, error) {
		*n++
		return src()
	}
	return n
}

// TestOneResolutionPerRequest is the invariant the single execution
// surface rests on: every entry point reads the engine's index state
// exactly once — with or without a live delta, for a query the gate
// admits and one it forces to ARM.
func TestOneResolutionPerRequest(t *testing.T) {
	eng, err := Open(gateDataset(t), Options{PrimarySupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	low := lowSupportQuery(t, eng)
	high := Query{MinSupport: 0.5, MinConfidence: 0.9}
	n := countResolutions(eng)
	check := func(stage string) {
		t.Helper()
		for _, q := range []Query{low, high} {
			forced := q
			forced.Plan = SSEUV
			entries := []struct {
				name string
				call func() error
			}{
				{"MineContext", func() error { _, err := eng.MineContext(context.Background(), q); return err }},
				{"MineContext forced", func() error { _, err := eng.MineContext(context.Background(), forced); return err }},
				{"ExplainContext", func() error { _, err := eng.ExplainContext(context.Background(), q); return err }},
			}
			for _, e := range entries {
				*n = 0
				if err := e.call(); err != nil {
					t.Fatalf("%s %s: %v", stage, e.name, err)
				}
				if *n != 1 {
					t.Errorf("%s: %s resolved the surface %d times, want exactly once", stage, e.name, *n)
				}
			}
		}
	}
	check("frozen")
	if _, err := eng.delta.Ingest([][]int32{{0, 0, 0, 0}, {1, 1, 1, 1}}, []int{5}); err != nil {
		t.Fatal(err)
	}
	check("live delta")
}

// TestGateAndPlanReadOneVersion is the regression for the gate-on-v1 /
// run-on-v2 skew: a delete batch that moves a query across the
// applicability gate, landing while the request is in flight, must not
// reach the plan the gate admitted — on the surface of the later version
// the localized threshold is below the primary count and an index plan
// silently drops rules. The surface source is rigged to ingest that
// batch on its second call; a request resolves once, so the call never
// comes, and the reply is the quiescent answer over the version the gate
// saw.
func TestGateAndPlanReadOneVersion(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.MushroomConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(&Dataset{rel: d}, Options{PrimarySupport: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, d.NumAttrs())
	for a := range row {
		row[a] = int32(d.Value(0, a))
	}
	if _, err := eng.delta.Ingest([][]int32{row}, nil); err != nil {
		t.Fatal(err)
	}

	// A query above the gate on version 1, by a margin the supported
	// filter makes the index plans cheapest at.
	q := Query{
		Range:         map[string][]string{d.Attrs[0].Name: {d.ValueString(0, 0)}},
		MinSupport:    1,
		MinConfidence: 0.9,
		MaxConsequent: 1,
	}
	f := focal(t, eng, q)
	q.MinSupport = float64(f.Surface.PrimaryCount+110) / float64(f.Size)
	if q.MinSupport > 1 {
		t.Fatalf("fixture drifted: focal subset of %d records cannot reach the primary count %d", f.Size, f.Surface.PrimaryCount)
	}
	want, _, _, err := eng.mine(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Plan == plans.ARM || len(want.Rules) == 0 {
		t.Fatalf("fixture drifted: the quiescent query must pass the gate onto an index plan with rules, got %v with %d", want.Stats.Plan, len(want.Rules))
	}

	victims := f.DQ.IDs()[:250]
	calls := 0
	src := eng.surface
	eng.surface = func() (*plans.Surface, error) {
		calls++
		if calls == 2 {
			if _, err := eng.delta.Ingest(nil, victims); err != nil {
				t.Error(err)
			}
		}
		return src()
	}
	got, _, _, err := eng.mine(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("the request resolved its surface %d times", calls)
	}
	if got.Stats.Plan != want.Stats.Plan || got.Stats.SubsetSize != want.Stats.SubsetSize || got.Stats.MinCount != want.Stats.MinCount {
		t.Errorf("reply ran %v over |D^Q|=%d minCount=%d, the quiescent answer %v over %d / %d",
			got.Stats.Plan, got.Stats.SubsetSize, got.Stats.MinCount, want.Stats.Plan, want.Stats.SubsetSize, want.Stats.MinCount)
	}
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Errorf("reply has %d rules, the quiescent answer %d", len(got.Rules), len(want.Rules))
	}

	// The rig is live: the next resolution ingests the batch, and on that
	// version the gate refuses the query.
	if after := focal(t, eng, q); after.Surface.Version != 2 || after.Applicable() {
		t.Fatalf("fixture drifted: after the delete batch (version %d) the query still passes the gate (%d >= %d)",
			after.Surface.Version, after.MinCount, after.Surface.PrimaryCount)
	}
}

// salaryRow encodes one salary record given as value labels.
func salaryRow(t *testing.T, eng *Engine, labels ...string) []int32 {
	t.Helper()
	row := make([]int32, len(labels))
	for a, l := range labels {
		v := eng.idx.Dataset.Attrs[a].ValueIndex(l)
		if v < 0 {
			t.Fatalf("attribute %d has no value %q", a, l)
		}
		row[a] = int32(v)
	}
	return row
}

// pricedSubset is the |D^Q| the optimizer priced a query at, read back
// from ARM's SELECT term (|D^Q| × item attributes × IDProbe).
func pricedSubset(q *plans.Query, ests []cost.Estimate) float64 {
	for _, e := range ests {
		if e.Plan == plans.ARM {
			return e.Search / (float64(q.Region.Dims()) * cost.UnitCosts().IDProbe)
		}
	}
	return -1
}

// TestEstimatesPriceTheResolvedSubset holds the optimizer to the focal
// subset the request resolved, not the frozen index's: after an ingest
// creates a subset the base table lacks, every plan has work to price,
// and after a delete empties one, no plan has any.
func TestEstimatesPriceTheResolvedSubset(t *testing.T) {
	t.Run("insert", func(t *testing.T) {
		eng := obsSalaryEngine(t, Options{})
		rows := [][]int32{
			salaryRow(t, eng, "Microsoft", "Sw Engg", "Seattle", "M", "30-40", "90K-120K"),
			salaryRow(t, eng, "Facebook", "QA Engg", "Seattle", "M", "20-30", "60K-90K"),
			salaryRow(t, eng, "Microsoft", "Engg Mgr", "Seattle", "M", "40-50", "120K-150K"),
			salaryRow(t, eng, "Google", "Sw Engg", "Seattle", "M", "30-40", "90K-120K"),
		}
		if _, err := eng.delta.Ingest(rows, nil); err != nil {
			t.Fatal(err)
		}
		q := Query{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"M"}}, MinSupport: 0.5, MinConfidence: 0.5}
		pq, err := eng.buildQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		explained, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range explained {
			if e.Cost <= 0 {
				t.Errorf("%v estimate %v over a 4-record subset", e.Plan, e.Cost)
			}
		}
		res, ests, _, err := eng.mine(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SubsetSize != 4 {
			t.Fatalf("|D^Q| = %d, want the 4 ingested rows", res.Stats.SubsetSize)
		}
		if got := pricedSubset(pq, ests); math.Round(got) != float64(res.Stats.SubsetSize) {
			t.Errorf("optimizer priced |D^Q| = %v, the plan ran over %d", got, res.Stats.SubsetSize)
		}
	})
	t.Run("delete", func(t *testing.T) {
		eng := obsSalaryEngine(t, Options{})
		q := Query{Range: map[string][]string{"Location": {"SFO"}}, MinSupport: 0.5, MinConfidence: 0.5}
		if _, err := eng.delta.Ingest(nil, focal(t, eng, q).DQ.IDs()); err != nil {
			t.Fatal(err)
		}
		ests, err := eng.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 6 {
			t.Fatalf("%d estimates", len(ests))
		}
		for _, e := range ests {
			if e.Cost != 0 {
				t.Errorf("%v estimate %v over the emptied subset", e.Plan, e.Cost)
			}
		}
	})
}

// TestAllRowsDeleted: with every record deleted the merged surface holds
// no CFI and an empty packed tree, every plan answers with no rules and
// no error, and every estimate is 0.
func TestAllRowsDeleted(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	all := make([]int, eng.idx.Dataset.NumRecords())
	for i := range all {
		all[i] = i
	}
	if _, err := eng.delta.Ingest(nil, all); err != nil {
		t.Fatal(err)
	}
	q := Query{MinSupport: 0.5, MinConfidence: 0.5}
	s := focal(t, eng, q).Surface
	if s.Tree.Size() != 0 || s.RTree.Size() != 0 || s.RTree.Height() != 1 {
		t.Fatalf("%d CFIs, a tree of %d entries and height %d", s.Tree.Size(), s.RTree.Size(), s.RTree.Height())
	}
	if err := s.RTree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range plans.Kinds() {
		forced := q
		forced.Plan = Plan(k + 1)
		res, _, _, err := eng.mine(context.Background(), forced, nil)
		if err != nil || len(res.Rules) != 0 {
			t.Errorf("%v: %d rules, error %v", k, len(res.Rules), err)
		}
	}
	pq, err := eng.buildQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eng.choose(pq, resolved(t, eng, pq)).ests {
		if e != (cost.Estimate{Plan: e.Plan}) {
			t.Errorf("estimate %+v over an empty dataset", e)
		}
	}
}

// TestFailedResolutionFailsTheQuery rigs the engine's surface source to
// fail the way a merged-view build whose box fan-out panics does: with
// the *pool.PanicError pool.Run returns, serially and at GOMAXPROCS 4.
// Mine and Explain return it, colarm_query_errors_total counts it, and
// the next query answers exactly as the one before.
func TestFailedResolutionFailsTheQuery(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	src := eng.surface
	for _, procs := range []int{1, 4} {
		want, err := atProcs(procs, func() (*Result, error) { return eng.Mine(q) })
		if err != nil {
			t.Fatal(err)
		}
		eng.surface = func() (*plans.Surface, error) {
			_, err := pool.Run(context.Background(), 8, func(i int) {
				if i == 5 {
					panic("box failed")
				}
			})
			return nil, err
		}
		errs := eng.metrics.queryErrors.Value()
		_, err = atProcs(procs, func() (*Result, error) { return eng.Mine(q) })
		var pe *pool.PanicError
		if !errors.As(err, &pe) || pe.Value != "box failed" {
			t.Fatalf("procs=%d: Mine returned %v, want the view build's panic", procs, err)
		}
		if got := eng.metrics.queryErrors.Value(); got != errs+1 {
			t.Errorf("procs=%d: colarm_query_errors_total went %d → %d", procs, errs, got)
		}
		if _, err := eng.Explain(q); !errors.As(err, &pe) {
			t.Errorf("procs=%d: Explain returned %v, want the view build's panic", procs, err)
		}
		eng.surface = src
		got, err := atProcs(procs, func() (*Result, error) { return eng.Mine(q) })
		if err != nil {
			t.Fatal(err)
		}
		want.Stats.DurationNanos, got.Stats.DurationNanos = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("procs=%d: the query after the failure differs from the one before", procs)
		}
	}
}
