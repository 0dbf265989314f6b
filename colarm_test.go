package colarm

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"colarm/internal/plans"
)

func salaryEngine(t testing.TB) *Engine {
	t.Helper()
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{PrimarySupport: 0.5}); err == nil {
		t.Error("nil dataset must error")
	}
	ds, _ := Salary()
	if _, err := Open(ds, Options{PrimarySupport: 0}); err == nil {
		t.Error("zero primary support must error")
	}
}

// TestQuickstart runs the doc-comment example end to end: the paper's
// localized rule for female Seattle employees.
func TestQuickstart(t *testing.T) {
	eng := salaryEngine(t)
	res, err := eng.Mine(Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubsetSize != 4 {
		t.Fatalf("subset size = %d, want 4", res.Stats.SubsetSize)
	}
	found := false
	for _, r := range res.Rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0] == "Age=30-40" &&
			len(r.Consequent) == 1 && r.Consequent[0] == "Salary=90K-120K" {
			found = true
			if math.Abs(r.Support-0.75) > 1e-9 || math.Abs(r.Confidence-1.0) > 1e-9 {
				t.Errorf("R_L measures: supp=%v conf=%v", r.Support, r.Confidence)
			}
			if r.Lift <= 1 {
				t.Errorf("R_L lift = %v, want > 1", r.Lift)
			}
			if !strings.Contains(r.String(), "=>") {
				t.Error("rule String missing arrow")
			}
		}
	}
	if !found {
		t.Fatalf("localized rule not found among %d rules", len(res.Rules))
	}
	if len(res.Estimates) != 6 {
		t.Errorf("estimates = %d, want 6 (optimizer ran)", len(res.Estimates))
	}
	if res.Stats.DurationNanos <= 0 {
		t.Error("duration not recorded")
	}
}

func TestForcedPlansAgree(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Boston"}},
		MinSupport:    0.5,
		MinConfidence: 0.7,
	}
	var ref *Result
	for _, p := range []Plan{SEV, SVS, SSEV, SSVS, SSEUV} {
		q.Plan = p
		res, err := eng.Mine(q)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Stats.Plan != p {
			t.Errorf("stats plan = %v, want %v", res.Stats.Plan, p)
		}
		if len(res.Estimates) != 0 {
			t.Errorf("%v: forced plan should skip estimates", p)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Rules) != len(ref.Rules) {
			t.Fatalf("%v emitted %d rules, want %d", p, len(res.Rules), len(ref.Rules))
		}
		for i := range res.Rules {
			if res.Rules[i].String() != ref.Rules[i].String() {
				t.Fatalf("%v rule %d = %s, want %s", p, i, res.Rules[i], ref.Rules[i])
			}
		}
	}
	// The from-scratch ARM baseline must cover the index plans' answer:
	// same antecedent, support and confidence for every index rule.
	q.Plan = ARM
	arm, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range ref.Rules {
		covered := false
		for _, ar := range arm.Rules {
			if strings.Join(ar.Antecedent, ",") == strings.Join(mr.Antecedent, ",") &&
				ar.SupportCount == mr.SupportCount &&
				math.Abs(ar.Confidence-mr.Confidence) < 1e-9 {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("ARM does not cover index rule %s", mr)
		}
	}
}

func TestMineQL(t *testing.T) {
	eng := salaryEngine(t)
	res, err := eng.MineQL(`
		REPORT LOCALIZED ASSOCIATION RULES
		FROM salary
		WHERE RANGE Location = (Seattle), Gender = (F)
		AND ITEM ATTRIBUTES Age, Salary
		HAVING minsupport = 70% AND minconfidence = 95%;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("QL query found no rules")
	}
	// Forced plan via QL.
	res2, err := eng.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		WHERE RANGE Location = (Seattle), Gender = (F)
		AND ITEM ATTRIBUTES Age, Salary
		HAVING minsupport = 70% AND minconfidence = 95% USING PLAN ARM;`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Plan != ARM {
		t.Errorf("plan = %v, want ARM", res2.Stats.Plan)
	}
	// Errors.
	if _, err := eng.MineQL("garbage"); err == nil {
		t.Error("garbage QL must error")
	}
	if _, err := eng.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM other HAVING minsupport = 0.5 AND minconfidence = 0.5`); err == nil {
		t.Error("wrong dataset name must error")
	}
	if _, err := eng.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		WHERE RANGE Nope = (x) HAVING minsupport = 0.5 AND minconfidence = 0.5`); err == nil {
		t.Error("unknown attribute must error")
	}
	if _, err := eng.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		HAVING minsupport = 0.5 AND minconfidence = 0.5 USING PLAN NOPE`); err == nil {
		t.Error("unknown plan must error")
	}
}

func TestExplain(t *testing.T) {
	eng := salaryEngine(t)
	ests, err := eng.Explain(Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.5,
		MinConfidence: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 6 {
		t.Fatalf("estimates = %d", len(ests))
	}
	for _, e := range ests {
		if e.Cost < 0 {
			t.Errorf("%v cost negative", e.Plan)
		}
	}
	if _, err := eng.Explain(Query{MinSupport: 0, MinConfidence: 0.5}); err == nil {
		t.Error("invalid query must error in Explain")
	}
}

// TestDeprecatedShardsIgnored: Options.Shards is read by nothing, so an
// engine opened with Shards: 4 is the engine opened without it — the
// same Staleness JSON (with no shards member), the same six estimates
// and the same snapshot bytes, fresh and with a buffered delta.
func TestDeprecatedShardsIgnored(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.5, MinConfidence: 0.8}
	type view struct {
		staleness []byte
		ests      []PlanEstimate
		snapshot  []byte
	}
	look := func(e *Engine) view {
		t.Helper()
		st, err := json.Marshal(e.Staleness())
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(st, []byte("shards")) {
			t.Fatalf("staleness %s carries a shards member", st)
		}
		ests, err := e.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 6 {
			t.Fatalf("%d estimates, want 6", len(ests))
		}
		var snap bytes.Buffer
		if err := e.Save(&snap); err != nil {
			t.Fatal(err)
		}
		return view{st, ests, snap.Bytes()}
	}
	var engs [2]*Engine
	for i, k := range []int{0, 4} {
		if engs[i], err = Open(ds, Options{PrimarySupport: 0.18, Shards: k}); err != nil {
			t.Fatal(err)
		}
	}
	row := map[string]string{"Company": "Google", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "M", "Age": "30-40", "Salary": "90K-120K"}
	for _, stage := range []string{"fresh", "delta"} {
		if stage == "delta" {
			for _, e := range engs {
				if _, err := e.Ingest([]map[string]string{row}, []int{2}); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, got := look(engs[0]), look(engs[1])
		if !bytes.Equal(got.staleness, want.staleness) {
			t.Errorf("%s: Shards: 4 staleness %s, Shards: 0 %s", stage, got.staleness, want.staleness)
		}
		if !reflect.DeepEqual(got.ests, want.ests) {
			t.Errorf("%s: Shards: 4 estimates %+v, Shards: 0 %+v", stage, got.ests, want.ests)
		}
		if !bytes.Equal(got.snapshot, want.snapshot) {
			t.Errorf("%s: snapshot bytes differ (%d vs %d)", stage, len(got.snapshot), len(want.snapshot))
		}
	}
}

func TestPlanParseAndString(t *testing.T) {
	for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
		got, err := ParsePlan(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlan(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePlan(""); err != nil || p != Auto {
		t.Error("empty plan must parse to Auto")
	}
	if _, err := ParsePlan("nope"); err == nil {
		t.Error("bad plan must error")
	}
}

// TestPlanIsKindPlusOne pins the arithmetic the facade converts plans
// with, and the text form JSON carries a Plan in.
func TestPlanIsKindPlusOne(t *testing.T) {
	for _, k := range plans.Kinds() {
		p := Plan(k + 1)
		if p.String() != k.String() || p == Auto {
			t.Errorf("Plan(%v + 1) = %v", k, p)
		}
	}
	if ARM != Plan(plans.ARM+1) || SEV != Plan(plans.SEV+1) {
		t.Error("the Plan constants are no longer the plans.Kind constants plus one")
	}
	for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
		text, err := json.Marshal(p)
		var back Plan
		if err != nil || string(text) != strconv.Quote(p.String()) || json.Unmarshal(text, &back) != nil || back != p {
			t.Errorf("plan %v: JSON %s (%v), read back %v", p, text, err, back)
		}
	}
	var p Plan
	if err := json.Unmarshal([]byte(`"ss_vs"`), &p); err != nil || p != SSVS {
		t.Errorf(`"ss_vs" = %v, %v`, p, err)
	}
	if err := json.Unmarshal([]byte(`"warp"`), &p); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("unknown plan name: %v, want ErrUnknownPlan", err)
	}
}

// TestFacadeTypesMarshalAsTheWire spot-checks that the tags sit on the
// facade types themselves (internal/server holds the goldens): a Result
// marshals to the rules/stats/estimates members of a /v1/mine reply and
// a Query to the structured request fields, Trace excluded.
func TestFacadeTypesMarshalAsTheWire(t *testing.T) {
	q := Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.5, MinConfidence: 0.9, Plan: SVS, Trace: true}
	if got, _ := json.Marshal(q); string(got) != `{"range":{"Location":["Seattle"]},"minSupport":0.5,"minConfidence":0.9,"plan":"S-VS"}` {
		t.Errorf("Query marshals to %s", got)
	}
	var back Query
	if err := json.Unmarshal([]byte(`{"minSupport":0.5,"plan":"arm","itemAttributes":["Age"]}`), &back); err != nil ||
		back.Plan != ARM || back.MinSupport != 0.5 || len(back.ItemAttributes) != 1 {
		t.Errorf("Query read back as %+v, %v", back, err)
	}
	res, err := salaryEngine(t).Mine(Query{Range: q.Range, MinSupport: 0.5, MinConfidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]json.RawMessage
	if body, _ := json.Marshal(res); json.Unmarshal(body, &reply) != nil || len(reply) != 3 ||
		reply["rules"] == nil || reply["stats"] == nil || reply["estimates"] == nil {
		t.Errorf("Result marshals to members %v", reply)
	}
}

func TestDatasetAccessorsAndCSV(t *testing.T) {
	ds, _ := Salary()
	if ds.Name() != "salary" || ds.NumRecords() != 11 || ds.NumAttributes() != 6 {
		t.Fatal("salary shape wrong")
	}
	attrs := ds.Attributes()
	if attrs[0] != "Company" || attrs[5] != "Salary" {
		t.Errorf("attributes = %v", attrs)
	}
	vals, err := ds.Values("Gender")
	if err != nil || len(vals) != 2 {
		t.Errorf("Values(Gender) = %v, %v", vals, err)
	}
	if _, err := ds.Values("Nope"); err == nil {
		t.Error("unknown attribute must error")
	}
	rec := ds.Record(0)
	if rec[0] != "IBM" {
		t.Errorf("record 0 = %v", rec)
	}
	var sb strings.Builder
	if err := ds.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	ds2, err := ReadCSV("salary", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if ds2.NumRecords() != 11 {
		t.Error("csv round trip lost records")
	}
}

func TestNewDatasetBuilderAndDiscretize(t *testing.T) {
	b := NewDataset("ages", "age", "group")
	for _, row := range [][]string{{"21", "x"}, {"35", "y"}, {"29", "x"}, {"44", "y"}} {
		if err := b.Add(row...); err != nil {
			t.Fatal(err)
		}
	}
	ds := b.Build()
	dd, err := ds.Discretize("age", 2, "width")
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := dd.Values("age")
	if len(vals) != 2 {
		t.Errorf("discretized values = %v", vals)
	}
	if _, err := ds.Discretize("age", 2, "frequency"); err != nil {
		t.Errorf("frequency binning: %v", err)
	}
	if _, err := ds.Discretize("nope", 2, "width"); err == nil {
		t.Error("unknown attr must error")
	}
	if _, err := ds.Discretize("age", 2, "bogus"); err == nil {
		t.Error("bogus method must error")
	}
	if _, err := ds.Discretize("group", 2, "width"); err == nil {
		t.Error("non-numeric column must error")
	}
}

func TestGeneratorsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generator smoke test skipped in -short mode")
	}
	ds, err := GenerateMushroom(1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRecords() != 8124 {
		t.Errorf("mushroom records = %d", ds.NumRecords())
	}
	ch, err := GenerateChess(1)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumRecords() != 3196 || ch.NumAttributes() != 37 {
		t.Error("chess shape wrong")
	}
	pu, err := GeneratePUMSB(1)
	if err != nil {
		t.Fatal(err)
	}
	if pu.NumRecords() != 49046 {
		t.Error("pumsb shape wrong")
	}
}
