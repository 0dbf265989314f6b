package colarm

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func obsSalaryEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	if opts.PrimarySupport == 0 {
		opts.PrimarySupport = 0.18
	}
	eng, err := Open(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func salaryQuery() Query {
	return Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
	}
}

func spanOps(tr *Trace) []string {
	var ops []string
	for _, s := range tr.Spans {
		ops = append(ops, s.Operator)
	}
	return ops
}

func TestTraceAttachment(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})

	q := salaryQuery()
	plain, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced query carries a trace: %+v", plain.Trace)
	}

	q.Trace = true
	traced, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("traced query returned no trace")
	}
	if got, want := traced.Trace.Plan, traced.Stats.Plan.String(); got != want {
		t.Errorf("trace plan %q, stats plan %q", got, want)
	}
	if traced.Trace.Total <= 0 {
		t.Errorf("trace total %v, want > 0", traced.Trace.Total)
	}
	if !reflect.DeepEqual(traced.Rules, plain.Rules) {
		t.Errorf("tracing changed the rules:\ntraced:   %v\nuntraced: %v", traced.Rules, plain.Rules)
	}

	// Per-plan operator pipelines (paper Figures 4-7).
	wantOps := map[Plan][]string{
		SEV:   {"SEARCH", "ELIMINATE", "VERIFY"},
		SVS:   {"SEARCH", "ELIMINATE", "VERIFY"},
		SSEV:  {"SUPPORTED-SEARCH", "ELIMINATE", "VERIFY"},
		SSVS:  {"SUPPORTED-SEARCH", "ELIMINATE", "VERIFY"},
		SSEUV: {"SUPPORTED-SEARCH", "ELIMINATE", "UNION", "VERIFY"},
		ARM:   {"SELECT", "ARM", "VERIFY"},
	}
	for plan, want := range wantOps {
		pq := q
		pq.Plan = plan
		res, err := eng.Mine(pq)
		if err != nil {
			t.Fatalf("plan %s: %v", plan, err)
		}
		if res.Trace == nil {
			t.Fatalf("plan %s: no trace on forced-plan query", plan)
		}
		if got := spanOps(res.Trace); !reflect.DeepEqual(got, want) {
			t.Errorf("plan %s: operators %v, want %v", plan, got, want)
		}
		for _, s := range res.Trace.Spans {
			if s.Duration < 0 {
				t.Errorf("plan %s: span %s has negative duration", plan, s.Operator)
			}
			if s.Workers < 1 {
				t.Errorf("plan %s: span %s fanned out to %d workers", plan, s.Operator, s.Workers)
			}
		}
		tree := res.Trace.Tree()
		if !strings.HasPrefix(tree, plan.String()+"  ") {
			t.Errorf("plan %s: tree does not lead with the plan name:\n%s", plan, tree)
		}
		for _, op := range want {
			if !strings.Contains(tree, op) {
				t.Errorf("plan %s: tree misses operator %s:\n%s", plan, op, tree)
			}
		}
		if !strings.Contains(tree, "├─") || !strings.Contains(tree, "└─") {
			t.Errorf("plan %s: tree misses branch glyphs:\n%s", plan, tree)
		}
	}
	if (*Trace)(nil).Tree() != "" {
		t.Error("nil trace should render empty")
	}
}

// TestTracePredicted pins the per-operator residual view: a traced query
// the optimizer planned carries, span by span, exactly the chosen plan's
// non-zero cost terms; a forced plan was never estimated and carries
// none.
func TestTracePredicted(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	q := salaryQuery()
	q.Trace = true
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := eng.buildQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	ch := eng.choose(pq, resolved(t, eng, pq))
	kind, ests := ch.kind, ch.ests
	if got := Plan(kind + 1); got != res.Stats.Plan {
		t.Fatalf("explain chose %s, the traced query ran %s", got, res.Stats.Plan)
	}
	want := map[string]float64{}
	for _, est := range ests {
		if est.Plan != kind {
			continue
		}
		for _, term := range est.Terms() {
			if term.Cost > 0 {
				want[term.Operator] = term.Cost
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the chosen plan's estimate has no non-zero term")
	}
	got := map[string]float64{}
	for _, s := range res.Trace.Spans {
		if s.Predicted != 0 {
			got[s.Operator] = s.Predicted
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("predicted per span %v, want the chosen plan's terms %v", got, want)
	}
	if tree := res.Trace.Tree(); !strings.Contains(tree, "pred=") {
		t.Errorf("tree of an optimizer-planned query shows no prediction:\n%s", tree)
	}

	q.Plan = res.Stats.Plan
	forced, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range forced.Trace.Spans {
		if s.Predicted != 0 {
			t.Errorf("forced plan: span %s carries prediction %v", s.Operator, s.Predicted)
		}
	}
	if tree := forced.Trace.Tree(); strings.Contains(tree, "pred=") {
		t.Errorf("tree of a forced plan shows a prediction:\n%s", tree)
	}
}

func TestWriteMetricsFacade(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	if _, err := eng.Mine(salaryQuery()); err != nil {
		t.Fatal(err)
	}
	bad := salaryQuery()
	bad.MinSupport = 1.5
	if _, err := eng.Mine(bad); err == nil {
		t.Fatal("query with minsupport > 1 should fail")
	}
	unknown := salaryQuery()
	unknown.Range = map[string][]string{"Planet": {"Mars"}}
	if _, err := eng.Mine(unknown); err == nil {
		t.Fatal("query over an unknown attribute should fail")
	}

	var b strings.Builder
	if err := eng.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`colarm_queries_total{dataset="salary"} 3`,
		`colarm_query_errors_total{dataset="salary"} 2`,
		`colarm_plan_chosen_total{dataset="salary",plan="ARM"} 1`,
		`colarm_query_seconds_count{dataset="salary"} 1`,
		`colarm_query_seconds_bucket{dataset="salary",le="+Inf"} 1`,
		"# TYPE colarm_query_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output misses %q:\n%s", want, out)
		}
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	eng.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("metrics handler status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "colarm_queries_total") {
		t.Errorf("handler body misses counters:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("handler content type %q", ct)
	}
}

func TestParsePlanSpellings(t *testing.T) {
	cases := map[string]Plan{
		"":         Auto,
		"auto":     Auto,
		"AUTO":     Auto,
		"S-E-V":    SEV,
		"s-e-v":    SEV,
		"sev":      SEV,
		"SS_VS":    SSVS,
		"ss-vs":    SSVS,
		"SS-E-U-V": SSEUV,
		"sseuv":    SSEUV,
		"arm":      ARM,
		"ARM":      ARM,
	}
	for in, want := range cases {
		got, err := ParsePlan(in)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParsePlan(%q) = %v, want %v", in, got, want)
		}
	}
	_, err := ParsePlan("bogus")
	if err == nil {
		t.Fatal("ParsePlan accepted a bogus name")
	}
	msg := err.Error()
	if !strings.Contains(msg, "valid plans:") || !strings.Contains(msg, "S-E-V") || !strings.Contains(msg, "ARM") {
		t.Errorf("error %q does not list the valid plan names", msg)
	}
}

func TestParseQueryStandalone(t *testing.T) {
	eng := obsSalaryEngine(t, Options{})
	src := `REPORT LOCALIZED ASSOCIATION RULES FROM salary
WHERE RANGE Location = (Seattle), Gender = (F)
AND ITEM ATTRIBUTES Age, Salary
HAVING minsupport = 70% AND minconfidence = 95%
USING PLAN ss-e-v;`
	q, err := eng.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.Plan != SSEV {
		t.Errorf("parsed plan %v, want SSEV", q.Plan)
	}
	if q.MinSupport != 0.70 || q.MinConfidence != 0.95 {
		t.Errorf("parsed thresholds %v/%v", q.MinSupport, q.MinConfidence)
	}
	q.Trace = true
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plan != SSEV {
		t.Errorf("executed %v, want forced SSEV", res.Stats.Plan)
	}
	if res.Trace == nil || res.Trace.Plan != "SS-E-V" {
		t.Errorf("trace %+v, want SS-E-V", res.Trace)
	}
	if _, err := eng.ParseQuery("REPORT NONSENSE"); err == nil {
		t.Error("ParseQuery accepted garbage")
	}
	if _, err := eng.ParseQuery(`REPORT LOCALIZED ASSOCIATION RULES FROM other HAVING minsupport = 0.5 AND minconfidence = 0.5`); err == nil {
		t.Error("ParseQuery accepted a query for another dataset")
	}
}
