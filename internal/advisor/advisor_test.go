package advisor

import (
	"testing"
	"time"

	"colarm/internal/plans"
)

func TestObservationClampAndRings(t *testing.T) {
	a := New()
	for i := 0; i < logWindow+10; i++ {
		a.ObserveQuery(QueryObservation{Plan: plans.ARM, LocalCount: i})
	}
	if got := a.WorkloadStats().Window; got != logWindow {
		t.Errorf("log window %d, want %d", got, logWindow)
	}
	// The ring keeps the newest observations.
	if got := a.log[len(a.log)-1].LocalCount; got != logWindow+9 {
		t.Errorf("newest logged query is #%d, want #%d", got, logWindow+9)
	}
	if got := a.log[0].LocalCount; got != 10 {
		t.Errorf("oldest logged query is #%d, want #10", got)
	}
}

func TestBuildRecommendationPaysForItself(t *testing.T) {
	a := New()
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
	a := New()
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
	b := New()
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
