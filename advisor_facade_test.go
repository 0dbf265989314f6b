package colarm

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// TestAdvisorReport exercises the read-only self-tuning surface: after
// a handful of (traced) queries the report must show the optimizer
// pricing with its static units, a populated workload window, and a
// coherent guardrail configuration.
func TestAdvisorReport(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.5,
		MinConfidence: 0.7,
		Trace:         true,
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Mine(q); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.Advisor()
	if rep.Calibration.LiveUnits != rep.Calibration.StaticUnits {
		t.Errorf("fresh engine prices with %+v, want the static units %+v",
			rep.Calibration.LiveUnits, rep.Calibration.StaticUnits)
	}
	if rep.Calibration.Swapped || rep.Calibration.Swaps != 0 {
		t.Error("fresh engine reports a recalibration swap")
	}
	if rep.Calibration.Samples <= 0 {
		t.Error("traced mines produced no timing samples")
	}
	if len(rep.Calibration.Units) == 0 {
		t.Error("calibration report carries no per-unit drift rows")
	}
	if rep.Calibration.Guardrail.Evaluated {
		t.Error("guardrail replay reported before any swap was attempted")
	}
	if rep.Workload.Window < 4 {
		t.Errorf("workload window = %d, want >= 4 logged queries", rep.Workload.Window)
	}
	if len(rep.Secondaries) != 0 {
		t.Errorf("fresh engine lists %d secondary indexes", len(rep.Secondaries))
	}
}

// TestRecalibrateFacade runs drift evaluations through the facade: the
// outcome must be internally consistent (a swap is only ever reported
// alongside a passing guardrail replay) whether or not the evidence
// asked for one.
func TestRecalibrateFacade(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Boston"}},
		MinSupport:    0.4,
		MinConfidence: 0.6,
		Trace:         true,
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Mine(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		cal := eng.Recalibrate()
		if cal.DriftScore < 0 {
			t.Fatalf("drift score = %v, want >= 0", cal.DriftScore)
		}
		if cal.Swapped {
			if !cal.Guardrail.Passed {
				t.Fatal("units swapped without a passing guardrail replay")
			}
			if cal.Swaps == 0 || cal.LastSwap == nil {
				t.Fatal("swap reported without bookkeeping")
			}
		}
	}
	// The interactive explain path reads the same report.
	if got := eng.Advisor().Calibration; got.Samples <= 0 {
		t.Errorf("calibration samples = %d after traced workload", got.Samples)
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
