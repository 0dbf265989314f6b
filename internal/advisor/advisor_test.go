package advisor

import (
	"math"
	"testing"
	"time"

	"colarm/internal/cost"
	"colarm/internal/plans"
)

// terms fabricates an operator observation whose measured time is the
// prediction under `actual` units while the advisor's static reference
// predicts under its own units — the controlled drift the recalibrator
// must recover.
func term(op string, coeff [cost.NumUnits]float64, actual cost.Units) TermObservation {
	av := actual.Vec()
	ns := 0.0
	for i, c := range coeff {
		ns += c * av[i]
	}
	return TermObservation{Operator: op, Coeff: coeff, Measured: time.Duration(ns)}
}

func choiceObs(coeffs [][cost.NumUnits]float64, measured []time.Duration, applicable bool) ChoiceObservation {
	return ChoiceObservation{Coeffs: coeffs, Measured: measured, ARMIndex: len(coeffs) - 1, MIPApplicable: applicable}
}

func TestRecalibrationSwapsOnPersistentBias(t *testing.T) {
	static := cost.DefaultUnits()
	// The machine is uniformly 2x slower than the static units claim.
	actual := static
	actual.WordOp *= 2
	actual.BoxRel *= 2
	actual.IDProbe *= 2
	actual.MapOp *= 2
	actual.GenOp *= 2

	a := New(static, Config{MinSamples: 8, BiasStreak: 2})
	coeff := [cost.NumUnits]float64{1000, 500, 800, 200, 100}
	for i := 0; i < 40; i++ {
		a.ObserveTerms([]TermObservation{term("ELIMINATE", coeff, actual)})
	}
	// A replay window where the plan ordering is units-independent, so
	// the guardrail trivially passes: one plan strictly dominates.
	cheap := [cost.NumUnits]float64{10, 10, 10, 10, 10}
	dear := [cost.NumUnits]float64{1000, 1000, 1000, 1000, 1000}
	for i := 0; i < 4; i++ {
		a.ObserveChoice(choiceObs(
			[][cost.NumUnits]float64{cheap, dear},
			[]time.Duration{time.Millisecond, 5 * time.Millisecond}, true))
	}

	rep := a.Recalibrate()
	if rep.Swapped {
		t.Fatal("swap before the bias streak completed")
	}
	if rep.DriftScore < 0.2 {
		t.Fatalf("drift score %v, want substantial", rep.DriftScore)
	}
	rep = a.Recalibrate()
	if !rep.Swapped {
		t.Fatalf("no swap after persistent bias: %+v", rep)
	}
	live := a.LiveUnits()
	// The recovered units should be markedly above static, approaching
	// the 2x truth (EWMA convergence, not exactness).
	if live.WordOp < static.WordOp*1.5 {
		t.Errorf("live WordOp %v did not move toward 2x static %v", live.WordOp, static.WordOp)
	}
	if got := a.Calibration(); got.Swaps != 1 || got.LastSwap == nil {
		t.Errorf("calibration after swap: swaps=%d lastSwap=%v", got.Swaps, got.LastSwap)
	}
	// Drift collapses after the swap.
	if sc := a.Calibration().DriftScore; sc > 1e-9 {
		t.Errorf("drift score after swap = %v, want 0", sc)
	}
}

func TestRecalibrationGuardrailBlocksRegression(t *testing.T) {
	static := cost.DefaultUnits()
	// Evidence says WordOp is 4x dearer...
	actual := static
	actual.WordOp *= 4

	a := New(static, Config{MinSamples: 4, BiasStreak: 1})
	coeff := [cost.NumUnits]float64{1000, 0, 0, 0, 0} // pure WordOp operator
	for i := 0; i < 20; i++ {
		a.ObserveTerms([]TermObservation{term("ELIMINATE", coeff, actual)})
	}
	// ...but the replay log shows that under candidate units the argmin
	// flips to a plan that measures 10x worse. The guardrail must
	// refuse the swap.
	wordHeavy := [cost.NumUnits]float64{1000, 0, 0, 0, 0} // cheap under static, dear under candidate
	mapHeavy := [cost.NumUnits]float64{0, 0, 0, 200, 0}   // dear under static, cheap under candidate
	a.ObserveChoice(choiceObs(
		[][cost.NumUnits]float64{wordHeavy, mapHeavy},
		[]time.Duration{time.Millisecond, 10 * time.Millisecond}, true))

	rep := a.Recalibrate()
	if rep.Swapped {
		t.Fatal("guardrail let a regressing swap through")
	}
	if !rep.Guardrail.Evaluated || rep.Guardrail.Passed {
		t.Fatalf("guardrail should have evaluated and failed: %+v", rep.Guardrail)
	}
	if rep.Guardrail.WorstRegret < 1 {
		t.Errorf("worst regret %v, want the 9x regression visible", rep.Guardrail.WorstRegret)
	}
	if a.LiveUnits() != static {
		t.Error("live units moved despite guardrail failure")
	}
}

func TestRecalibrationRefusesSwapWithoutReplayEvidence(t *testing.T) {
	static := cost.DefaultUnits()
	actual := static
	actual.MapOp *= 3
	a := New(static, Config{MinSamples: 4, BiasStreak: 1})
	coeff := [cost.NumUnits]float64{0, 0, 0, 500, 0}
	for i := 0; i < 20; i++ {
		a.ObserveTerms([]TermObservation{term("VERIFY", coeff, actual)})
	}
	rep := a.Recalibrate()
	if rep.Swapped || !rep.Guardrail.Evaluated || rep.Guardrail.Passed {
		t.Fatalf("swap without replay evidence must be refused: %+v", rep)
	}
}

func TestReplayChoiceHonorsApplicabilityGate(t *testing.T) {
	// MIP plan is cheaper by coefficients, but the gate forced ARM; the
	// replay must return ARM's measured time under any units.
	obs := choiceObs(
		[][cost.NumUnits]float64{{1, 1, 1, 1, 1}, {100, 100, 100, 100, 100}},
		[]time.Duration{time.Millisecond, 7 * time.Millisecond}, false)
	if got := replayChoice(obs, cost.DefaultUnits()); got != 7*time.Millisecond {
		t.Fatalf("gated replay returned %v, want ARM's 7ms", got)
	}
	obs.MIPApplicable = true
	if got := replayChoice(obs, cost.DefaultUnits()); got != time.Millisecond {
		t.Fatalf("ungated replay returned %v, want the MIP plan's 1ms", got)
	}
}

func TestObservationClampAndRings(t *testing.T) {
	a := New(cost.Units{}, Config{ReplayWindow: 3, LogWindow: 2})
	if a.StaticUnits() != cost.DefaultUnits() {
		t.Fatal("zero static units must select defaults")
	}
	// Degenerate observations are ignored.
	a.ObserveTerms([]TermObservation{
		{Operator: "X", Coeff: [cost.NumUnits]float64{}, Measured: time.Second},
		{Operator: "Y", Coeff: [cost.NumUnits]float64{1, 0, 0, 0, 0}, Measured: 0},
	})
	a.ObserveChoice(ChoiceObservation{}) // mismatched/empty: dropped
	if rep := a.Calibration(); rep.Samples != 0 {
		t.Fatalf("degenerate observations counted: %d", rep.Samples)
	}
	// A wildly off span is clamped, not absorbed raw.
	coeff := [cost.NumUnits]float64{1000, 0, 0, 0, 0}
	a.ObserveTerms([]TermObservation{{Operator: "E", Coeff: coeff, Measured: time.Hour}})
	for _, u := range a.Calibration().Units {
		if math.Abs(u.Bias) > math.Log(8)+1e-9 {
			t.Errorf("bias %v exceeds the per-observation clamp", u.Bias)
		}
	}
	// Rings stay bounded.
	for i := 0; i < 10; i++ {
		a.ObserveChoice(choiceObs([][cost.NumUnits]float64{coeff}, []time.Duration{time.Millisecond}, true))
		a.ObserveQuery(QueryObservation{Plan: plans.ARM})
	}
	if got := a.WorkloadStats().Window; got != 2 {
		t.Errorf("log window %d, want 2", got)
	}
}

func TestBuildRecommendationPaysForItself(t *testing.T) {
	a := New(cost.DefaultUnits(), Config{})
	// 50 forced-ARM queries, each 2ms measured vs 0.1ms estimated MIP:
	// ~95ms accumulated benefit.
	for i := 0; i < 50; i++ {
		a.ObserveQuery(QueryObservation{
			SubsetSize:  100,
			LocalCount:  20 + i%10,
			Plan:        plans.ARM,
			ForcedARM:   true,
			Measured:    2 * time.Millisecond,
			BestMIPCost: 1e5,
			ARMCost:     2e6,
		})
	}
	recs := a.Recommendations(1000, nil, 50*time.Millisecond)
	if len(recs) != 1 || recs[0].Action != "build" {
		t.Fatalf("want one build recommendation, got %+v", recs)
	}
	r := recs[0]
	if r.PrimaryCount < 20 || r.PrimaryCount > 29 {
		t.Errorf("target primary count %d outside the observed local counts", r.PrimaryCount)
	}
	if r.PrimarySupport <= 0 || r.PrimarySupport > 0.03 {
		t.Errorf("primary fraction %v implausible for count %d over 1000 records", r.PrimarySupport, r.PrimaryCount)
	}
	if r.BenefitNanos < r.BuildCostNanos {
		t.Errorf("recommended despite benefit %d < build cost %d", r.BenefitNanos, r.BuildCostNanos)
	}

	// Too expensive a build: no recommendation.
	if recs := a.Recommendations(1000, nil, time.Hour); len(recs) != 0 {
		t.Errorf("build recommended despite prohibitive cost: %+v", recs)
	}

	// Already covered by a fresh secondary: no recommendation (the
	// covered queries stop accumulating).
	sec := []SecondaryState{{ID: 1, Primary: 0.01, PrimaryCount: 10}}
	recs = a.Recommendations(1000, sec, 50*time.Millisecond)
	for _, r := range recs {
		if r.Action == "build" {
			t.Errorf("build recommended despite coverage: %+v", r)
		}
	}
}

func TestDropRecommendationForIdleSecondary(t *testing.T) {
	a := New(cost.DefaultUnits(), Config{MinDropWindow: 10})
	for i := 0; i < 40; i++ {
		a.ObserveQuery(QueryObservation{Plan: plans.SEV, IndexUsed: 0, Measured: time.Millisecond})
	}
	sec := []SecondaryState{{ID: 1, Primary: 0.02, PrimaryCount: 20}}
	recs := a.Recommendations(1000, sec, time.Millisecond)
	found := false
	for _, r := range recs {
		if r.Action == "drop" && r.PrimarySupport == 0.02 {
			found = true
		}
	}
	if !found {
		t.Fatalf("idle secondary not recommended for drop: %+v", recs)
	}

	// A winning secondary stays.
	b := New(cost.DefaultUnits(), Config{MinDropWindow: 10})
	for i := 0; i < 40; i++ {
		b.ObserveQuery(QueryObservation{Plan: plans.SEV, IndexUsed: 1, Measured: time.Millisecond})
	}
	for _, r := range b.Recommendations(1000, sec, time.Millisecond) {
		if r.Action == "drop" {
			t.Errorf("winning secondary recommended for drop: %+v", r)
		}
	}
	if st := b.WorkloadStats(); st.SecondaryWins != 40 {
		t.Errorf("secondary wins = %d, want 40", st.SecondaryWins)
	}
}
