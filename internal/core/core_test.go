package core

import (
	"testing"

	"colarm/internal/colarmql"
	"colarm/internal/datagen"
	"colarm/internal/plans"
)

func salaryEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	if opts.PrimarySupport == 0 {
		opts.PrimarySupport = 0.18
	}
	eng, err := NewEngine(datagen.Salary(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(datagen.Salary(), Options{PrimarySupport: 0}); err == nil {
		t.Error("zero primary support must error")
	}
	if _, err := NewEngine(datagen.Salary(), Options{PrimarySupport: 2}); err == nil {
		t.Error("primary support > 1 must error")
	}
}

func TestBuildQueryAndMine(t *testing.T) {
	eng := salaryEngine(t, Options{})
	q, err := eng.BuildQuery(&QuerySpec{
		Range:         map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttrs:     []string{"Age", "Salary"},
		MinSupport:    0.70,
		MinConfidence: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, ests, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 6 {
		t.Errorf("estimates = %d", len(ests))
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules")
	}
	// The optimizer's choice matches the executed plan.
	kind, ests2, err := eng.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != kind {
		t.Errorf("mined with %v, explain chose %v", res.Stats.Plan, kind)
	}
	if len(ests2) != 6 {
		t.Errorf("explain estimates = %d", len(ests2))
	}
	// Forced plan agrees on the answer (index plans only).
	forced, err := eng.MineWith(plans.SSEUV, q)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Stats.Plan != plans.SSEUV {
		t.Error("forced plan ignored")
	}
}

func TestBuildQueryErrors(t *testing.T) {
	eng := salaryEngine(t, Options{})
	if _, err := eng.BuildQuery(&QuerySpec{Range: map[string][]string{"Nope": {"x"}}, MinSupport: 0.5, MinConfidence: 0.5}); err == nil {
		t.Error("unknown range attribute must error")
	}
	if _, err := eng.BuildQuery(&QuerySpec{ItemAttrs: []string{"Nope"}, MinSupport: 0.5, MinConfidence: 0.5}); err == nil {
		t.Error("unknown item attribute must error")
	}
	// Invalid thresholds surface at Mine/Explain.
	q, err := eng.BuildQuery(&QuerySpec{MinSupport: 0, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Mine(q); err == nil {
		t.Error("invalid minsupport must error at Mine")
	}
	if _, _, err := eng.Explain(q); err == nil {
		t.Error("invalid minsupport must error at Explain")
	}
}

// TestQueryLanguageIntegration drives the full stack: parse -> spec ->
// query -> optimize -> execute.
func TestQueryLanguageIntegration(t *testing.T) {
	eng := salaryEngine(t, Options{})
	st, err := colarmql.Parse(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		WHERE RANGE Location = (Seattle), Gender = (F)
		AND ITEM ATTRIBUTES Age, Salary
		HAVING minsupport = 70% AND minconfidence = 95%;`)
	if err != nil {
		t.Fatal(err)
	}
	spec := &QuerySpec{
		Range:         map[string][]string{},
		ItemAttrs:     st.ItemAttrs,
		MinSupport:    st.MinSupport,
		MinConfidence: st.MinConfidence,
	}
	for _, rc := range st.Range {
		spec.Range[rc.Attr] = rc.Values
	}
	q, err := eng.BuildQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsetSize != 4 || len(res.Rules) == 0 {
		t.Fatalf("subset %d, rules %d", res.Stats.SubsetSize, len(res.Rules))
	}
}
