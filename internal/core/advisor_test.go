package core

import (
	"context"
	"testing"
	"time"

	"colarm/internal/advisor"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/plans"
	"colarm/internal/relation"
	"colarm/internal/rules"
)

// advisorDataset generates a dataset large enough that localized
// queries under the base primary support get forced to ARM, giving the
// index advisor something to reclaim.
func advisorDataset(t testing.TB) *relation.Dataset {
	t.Helper()
	cfg := datagen.Config{
		Name:    "adv",
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
	return d
}

// lowSupportQuery builds a query whose localized threshold falls below
// the base index's primary count, so the applicability gate forces ARM.
func lowSupportQuery(t testing.TB, eng *Engine) *plans.Query {
	t.Helper()
	reg := itemset.RegionFor(eng.Index.Space)
	if err := reg.Restrict(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 0.25, MinConfidence: 0.9}
	if f := eng.Resolve(q); f.Applicable() {
		t.Fatalf("fixture drifted: localized count %d (subset %d) must fall below primary count %d", f.MinCount, f.Size, f.Surface.PrimaryCount)
	}
	return q
}

func canonical(rs []rules.Rule) []rules.Rule {
	out := rules.Dedupe(append([]rules.Rule(nil), rs...))
	rules.SortCanonical(out)
	return out
}

func sameRules(t *testing.T, a, b []rules.Rule) {
	t.Helper()
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		t.Fatalf("rule counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Key() != cb[i].Key() || ca[i].SupportCount != cb[i].SupportCount || ca[i].Confidence != cb[i].Confidence {
			t.Fatalf("rule %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
}

// TestSecondaryIndexReclaimsForcedARM is the differential at the heart
// of the index advisor: a query the base index's gate forces to ARM is
// answered by a secondary index at a lower primary support with
// byte-identical rules, and dropping the secondary returns the query to
// ARM.
func TestSecondaryIndexReclaimsForcedARM(t *testing.T) {
	eng, err := NewEngine(advisorDataset(t), Options{PrimarySupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	q := lowSupportQuery(t, eng)

	before, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Stats.Plan != plans.ARM {
		t.Fatalf("gate did not force ARM: executed %v", before.Stats.Plan)
	}
	if st := eng.Advisor.WorkloadStats(); st.ForcedARM != 1 {
		t.Fatalf("forced-ARM not logged: %+v", st)
	}

	info, err := eng.BuildSecondary(context.Background(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh || info.PrimaryCount <= 0 {
		t.Fatalf("secondary not installed fresh: %+v", info)
	}
	after, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Plan == plans.ARM {
		t.Fatalf("secondary index did not reclaim the query (still ARM)")
	}
	if st := eng.Advisor.WorkloadStats(); st.SecondaryWins != 1 {
		t.Fatalf("secondary win not logged: %+v", st)
	}
	sameRules(t, before.Rules, after.Rules)

	// Explain agrees with the multi-index argmin.
	kind, _, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if kind != after.Stats.Plan {
		t.Errorf("explain chose %v, mine executed %v", kind, after.Stats.Plan)
	}

	if !eng.DropSecondary(0.1) {
		t.Fatal("drop did not find the secondary")
	}
	if eng.DropSecondary(0.1) {
		t.Fatal("double drop succeeded")
	}
	dropped, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Stats.Plan != plans.ARM {
		t.Fatalf("after drop the gate must force ARM again, got %v", dropped.Stats.Plan)
	}
}

// TestSecondaryGoesStaleOnIngest pins the exactness gate: a secondary
// is consulted only while its build version matches the delta version,
// because any later batch would make its prestored CFIs incomplete.
func TestSecondaryGoesStaleOnIngest(t *testing.T) {
	eng, err := NewEngine(advisorDataset(t), Options{PrimarySupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	q := lowSupportQuery(t, eng)
	if _, err := eng.BuildSecondary(context.Background(), 0.1); err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan == plans.ARM {
		t.Fatal("fresh secondary not consulted")
	}
	if _, err := eng.Ingest([][]int32{{0, 0, 0, 0}}, nil); err != nil {
		t.Fatal(err)
	}
	secs := eng.Secondaries()
	if len(secs) != 1 || secs[0].Fresh {
		t.Fatalf("secondary must be stale after ingest: %+v", secs)
	}
	res, _, err = eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != plans.ARM {
		t.Fatalf("stale secondary consulted: executed %v", res.Stats.Plan)
	}
	// Rebuilding the secondary over the moved surface re-freshens it.
	if _, err := eng.BuildSecondary(context.Background(), 0.1); err != nil {
		t.Fatal(err)
	}
	if secs := eng.Secondaries(); len(secs) != 1 || !secs[0].Fresh {
		t.Fatalf("rebuilt secondary must replace the stale one, fresh: %+v", secs)
	}
}

// TestAdvisorRecommendationLoop drives the full loop: forced-ARM
// queries accumulate evidence, Recommendations proposes a build sized
// to the workload, ApplyRecommendations installs it, and the workload
// starts landing on the secondary.
func TestAdvisorRecommendationLoop(t *testing.T) {
	eng, err := NewEngine(advisorDataset(t), Options{PrimarySupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic workload's accumulated gap is tiny against a real
	// build duration; price the build at a nanosecond — through the
	// measured build cost, the way production pays — so the loop is
	// testable deterministically.
	eng.Delta.SetRebuildCost(time.Nanosecond)
	q := lowSupportQuery(t, eng)
	for i := 0; i < 20; i++ {
		if _, _, err := eng.Mine(q); err != nil {
			t.Fatal(err)
		}
	}
	recs := eng.Recommendations()
	var build *advisor.Recommendation
	for i := range recs {
		if recs[i].Action == "build" {
			build = &recs[i]
		}
	}
	if build == nil {
		t.Fatalf("no build recommendation from %d forced-ARM queries: %+v", 20, recs)
	}
	localCount := eng.Resolve(q).MinCount
	if build.PrimaryCount > localCount {
		t.Fatalf("recommended primary count %d cannot reclaim the workload (localized %d)", build.PrimaryCount, localCount)
	}
	applied, err := eng.ApplyRecommendations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 || len(eng.Secondaries()) != 1 {
		t.Fatalf("recommendation not applied: %+v, secondaries %+v", applied, eng.Secondaries())
	}
	res, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan == plans.ARM {
		t.Fatal("applied secondary did not reclaim the workload")
	}
	// With the workload now covered, no further build is recommended.
	for _, r := range eng.Recommendations() {
		if r.Action == "build" {
			t.Fatalf("build still recommended after coverage: %+v", r)
		}
	}
}

// TestRebuildCarriesAdvisor: the workload log survives an engine swap;
// secondaries (mined over the old surface) do not.
func TestRebuildCarriesAdvisor(t *testing.T) {
	eng, err := NewEngine(advisorDataset(t), Options{PrimarySupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildSecondary(context.Background(), 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest([][]int32{{1, 1, 1, 1}}, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Advisor != eng.Advisor {
		t.Error("advisor not carried across rebuild")
	}
	if len(fresh.Secondaries()) != 0 {
		t.Error("stale secondaries carried across rebuild")
	}
}
