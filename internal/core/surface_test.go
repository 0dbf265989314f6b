package core

import (
	"context"
	"reflect"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/plans"
)

// countResolutions wraps the engine's surface source in a counter.
func countResolutions(e *Engine) *int {
	n := new(int)
	src := e.surface
	e.surface = func() *plans.Surface {
		*n++
		return src()
	}
	return n
}

// TestOneResolutionPerRequest is the invariant the single execution
// surface rests on: every entry point reads the engine's index state
// exactly once — monolithic or sharded, with or without a live delta,
// and when the argmin hands the query to a fresh secondary index.
func TestOneResolutionPerRequest(t *testing.T) {
	for _, shards := range []int{0, 3} {
		eng, err := NewEngine(advisorDataset(t), Options{PrimarySupport: 0.4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		low := lowSupportQuery(t, eng)
		high := &plans.Query{Region: itemset.RegionFor(eng.Index.Space), MinSupport: 0.5, MinConfidence: 0.9}
		n := countResolutions(eng)
		check := func(stage string) {
			t.Helper()
			for _, q := range []*plans.Query{low, high} {
				entries := []struct {
					name string
					call func() error
				}{
					{"MineContext", func() error { _, _, err := eng.MineContext(context.Background(), q); return err }},
					{"MineWithContext", func() error { _, err := eng.MineWithContext(context.Background(), plans.SSEUV, q); return err }},
					{"ExplainContext", func() error { _, _, err := eng.ExplainContext(context.Background(), q); return err }},
				}
				for _, e := range entries {
					*n = 0
					if err := e.call(); err != nil {
						t.Fatalf("K=%d %s %s: %v", shards, stage, e.name, err)
					}
					if *n != 1 {
						t.Errorf("K=%d %s: %s resolved the surface %d times, want exactly once", shards, stage, e.name, *n)
					}
				}
			}
		}
		check("frozen")
		if _, err := eng.Ingest([][]int32{{0, 0, 0, 0}, {1, 1, 1, 1}}, []int{5}); err != nil {
			t.Fatal(err)
		}
		check("live delta")
		if _, err := eng.BuildSecondary(context.Background(), 0.1); err != nil {
			t.Fatal(err)
		}
		res, _, err := eng.Mine(low)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Plan == plans.ARM {
			t.Fatalf("K=%d: fixture drifted, the fresh secondary does not reclaim the gate-forced query", shards)
		}
		check("fresh secondary")
	}
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
	eng, err := NewEngine(d, Options{PrimarySupport: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]int32, d.NumAttrs())
	for a := range row {
		row[a] = int32(d.Value(0, a))
	}
	if _, err := eng.Ingest([][]int32{row}, nil); err != nil {
		t.Fatal(err)
	}

	// A query sitting just above the gate on version 1.
	reg := itemset.RegionFor(eng.Index.Space)
	if err := reg.Restrict(0, []int{d.Value(0, 0)}); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 1, MinConfidence: 0.9, MaxConsequent: 1}
	f := eng.Resolve(q)
	q.MinSupport = float64(f.Surface.PrimaryCount+2) / float64(f.Size)
	if q.MinSupport > 1 {
		t.Fatalf("fixture drifted: focal subset of %d records cannot reach the primary count %d", f.Size, f.Surface.PrimaryCount)
	}
	want, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Plan == plans.ARM || len(want.Rules) == 0 {
		t.Fatalf("fixture drifted: the quiescent query must pass the gate onto an index plan with rules, got %v with %d", want.Stats.Plan, len(want.Rules))
	}

	victims := f.DQ.IDs()[:60]
	calls := 0
	src := eng.surface
	eng.surface = func() *plans.Surface {
		calls++
		if calls == 2 {
			if _, err := eng.Ingest(nil, victims); err != nil {
				t.Error(err)
			}
		}
		return src()
	}
	got, _, err := eng.Mine(q)
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
	if after := eng.Resolve(q); after.Surface.Version != 2 || after.Applicable() {
		t.Fatalf("fixture drifted: after the delete batch (version %d) the query still passes the gate (%d >= %d)",
			after.Surface.Version, after.MinCount, after.Surface.PrimaryCount)
	}
}
