package colarm

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"colarm/internal/cost"
)

// TestAdvisorReport exercises the read-only advisor surface: after a
// handful of queries the report must show the unit costs the engine was
// opened with and a populated workload window.
func TestAdvisorReport(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.5,
		MinConfidence: 0.7,
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Mine(q); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.Advisor()
	if rep.Units != cost.DefaultUnits() {
		t.Errorf("uncalibrated engine prices with %+v, want the defaults %+v", rep.Units, cost.DefaultUnits())
	}
	if rep.Workload.Window != 4 {
		t.Errorf("workload window = %d, want 4 logged queries", rep.Workload.Window)
	}
	if len(rep.Secondaries) != 0 {
		t.Errorf("fresh engine lists %d secondary indexes", len(rep.Secondaries))
	}
}

// TestSecondaryIndexLifecycle drives build → list → argmin visibility →
// drop through the facade.
func TestSecondaryIndexLifecycle(t *testing.T) {
	eng := salaryEngine(t)
	ctx := context.Background()

	info, err := eng.BuildSecondaryIndex(ctx, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh {
		t.Error("freshly built secondary is not fresh")
	}
	if info.PrimarySupport != 0.05 || info.PrimaryCount <= 0 || info.CFIs <= 0 {
		t.Errorf("secondary info = %+v, want populated counts at primary 0.05", info)
	}
	if info.BuildDuration <= 0 {
		t.Error("build duration not recorded")
	}

	secs := eng.SecondaryIndexes()
	if len(secs) != 1 || secs[0].PrimarySupport != 0.05 {
		t.Fatalf("secondaries = %+v, want exactly the 0.05 index", secs)
	}
	if got := eng.Advisor().Secondaries; len(got) != 1 {
		t.Errorf("advisor report lists %d secondaries, want 1", len(got))
	}

	// Queries keep answering with the secondary installed.
	if _, err := eng.Mine(Query{
		Range:         map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		MinSupport:    0.7,
		MinConfidence: 0.9,
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := eng.BuildSecondaryIndex(ctx, 0); err == nil {
		t.Error("primary support 0 must error")
	}
	if _, err := eng.BuildSecondaryIndex(ctx, 1.5); err == nil {
		t.Error("primary support > 1 must error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.BuildSecondaryIndex(cancelled, 0.05); err == nil {
		t.Error("cancelled context must abort the build")
	}

	if eng.DropSecondaryIndex(0.42) {
		t.Error("dropping an absent index reported success")
	}
	if !eng.DropSecondaryIndex(0.05) {
		t.Error("dropping the installed index failed")
	}
	if left := eng.SecondaryIndexes(); len(left) != 0 {
		t.Errorf("secondaries after drop = %+v, want none", left)
	}
}

// TestApplyRecommendationsFacade runs the advisor's act step. The tiny
// salary workload rarely pays for an index, so the assertion is on the
// contract: no error, and anything applied is a well-formed action that
// is reflected in the installed set.
func TestApplyRecommendationsFacade(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.6,
		MinConfidence: 0.8,
	}
	for i := 0; i < 6; i++ {
		if _, err := eng.Mine(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range eng.Recommendations() {
		if rec.Action != "build" && rec.Action != "drop" {
			t.Errorf("recommendation action = %q", rec.Action)
		}
		if rec.Reason == "" {
			t.Error("recommendation carries no reason")
		}
	}
	applied, err := eng.ApplyRecommendations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range applied {
		if rec.Action == "build" {
			found := false
			for _, s := range eng.SecondaryIndexes() {
				if math.Abs(s.PrimarySupport-rec.PrimarySupport) <= 1e-9 {
					found = true
				}
			}
			if !found {
				t.Errorf("applied build at %v is not installed", rec.PrimarySupport)
			}
		}
	}
}

// TestSaveLoadSecondaryIndexes proves a fresh secondary index survives
// the snapshot round trip: the restored engine lists it, it is fresh,
// and queries answer identically.
func TestSaveLoadSecondaryIndexes(t *testing.T) {
	eng := salaryEngine(t)
	if _, err := eng.BuildSecondaryIndex(context.Background(), 0.05); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "salary.colarm")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	secs := loaded.SecondaryIndexes()
	if len(secs) != 1 {
		t.Fatalf("restored engine lists %d secondaries, want 1", len(secs))
	}
	if secs[0].PrimarySupport != 0.05 || !secs[0].Fresh || secs[0].CFIs <= 0 {
		t.Errorf("restored secondary = %+v, want fresh 0.05 index", secs[0])
	}
	q := Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.5,
		MinConfidence: 0.7,
	}
	a, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != len(b.Rules) {
		t.Fatalf("rules %d != %d after reload with secondary", len(a.Rules), len(b.Rules))
	}
}
