package colarm

import (
	"testing"

	"colarm/internal/colarmql"
)

func TestNewEngineValidation(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ds, Options{PrimarySupport: 0}); err == nil {
		t.Error("zero primary support must error")
	}
	if _, err := Open(ds, Options{PrimarySupport: 2}); err == nil {
		t.Error("primary support > 1 must error")
	}
}

func TestBuildQueryAndMine(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	q := Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
	}
	pq, err := eng.buildQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 6 {
		t.Errorf("estimates = %d", len(res.Estimates))
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules")
	}
	// The optimizer's choice matches the executed plan.
	ch := eng.choose(pq, resolved(t, eng, pq))
	if res.Stats.Plan != Plan(ch.kind+1) {
		t.Errorf("mined with %v, explain chose %v", res.Stats.Plan, ch.kind)
	}
	ests2, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests2) != 6 {
		t.Errorf("explain estimates = %d", len(ests2))
	}
	// Forced plan agrees on the answer (index plans only).
	q.Plan = SSEUV
	forced, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Stats.Plan != SSEUV {
		t.Error("forced plan ignored")
	}
}

func TestBuildQueryErrors(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	if _, err := eng.buildQuery(Query{Range: map[string][]string{"Nope": {"x"}}, MinSupport: 0.5, MinConfidence: 0.5}); err == nil {
		t.Error("unknown range attribute must error")
	}
	if _, err := eng.buildQuery(Query{ItemAttributes: []string{"Nope"}, MinSupport: 0.5, MinConfidence: 0.5}); err == nil {
		t.Error("unknown item attribute must error")
	}
	// Invalid thresholds surface at Mine/Explain.
	q := Query{MinSupport: 0, MinConfidence: 0.5}
	if _, err := eng.buildQuery(q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mine(q); err == nil {
		t.Error("invalid minsupport must error at Mine")
	}
	if _, err := eng.Explain(q); err == nil {
		t.Error("invalid minsupport must error at Explain")
	}
}

// TestQueryLanguageIntegration drives the full stack: parse -> query ->
// optimize -> execute.
func TestQueryLanguageIntegration(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	st, err := colarmql.Parse(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		WHERE RANGE Location = (Seattle), Gender = (F)
		AND ITEM ATTRIBUTES Age, Salary
		HAVING minsupport = 70% AND minconfidence = 95%;`)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Range:          map[string][]string{},
		ItemAttributes: st.ItemAttrs,
		MinSupport:     st.MinSupport,
		MinConfidence:  st.MinConfidence,
	}
	for _, rc := range st.Range {
		q.Range[rc.Attr] = rc.Values
	}
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsetSize != 4 || len(res.Rules) == 0 {
		t.Fatalf("subset %d, rules %d", res.Stats.SubsetSize, len(res.Rules))
	}
}
