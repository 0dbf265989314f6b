package colarm

import (
	"reflect"
	"strings"
	"testing"
)

// mineQLSeeds is FuzzMineQL's seed corpus: every clause of the language,
// both threshold spellings, forced plans, a foreign FROM and an unknown
// attribute.
var mineQLSeeds = []string{
	`REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Location = (Seattle), Gender = (F) AND ITEM ATTRIBUTES Age, Salary HAVING minsupport = 70% AND minconfidence = 95%;`,
	`REPORT LOCALIZED ASSOCIATION RULES FROM salary HAVING minsupport = 20% AND minconfidence = 50%`,
	`REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Age = (30-40) HAVING minsupport = 0.3 AND minconfidence = 0 USING PLAN ARM;`,
	`REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Gender = (M, F) HAVING minsupport = 50% AND minconfidence = 80% USING PLAN S-E-V`,
	`REPORT LOCALIZED ASSOCIATION RULES FROM other HAVING minsupport = 0.5 AND minconfidence = 0.5`,
	`REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Nope = (x) HAVING minsupport = 0.5 AND minconfidence = 0.5`,
}

// FuzzMineQL drives the whole stack — parser, query building,
// optimizer, executor — with arbitrary query-language input against the
// paper's salary dataset. The engine must reject bad input with an
// error, never panic, and every accepted query's rules must respect its
// thresholds.
func FuzzMineQL(f *testing.F) {
	ds, err := Salary()
	if err != nil {
		f.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range mineQLSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := eng.MineQL(src)
		if err != nil {
			return
		}
		q, err := eng.ParseQuery(src)
		if err != nil {
			t.Fatalf("MineQL accepted %q but ParseQuery rejects it: %v", src, err)
		}
		for _, r := range res.Rules {
			if r.Confidence < q.MinConfidence {
				t.Fatalf("rule %v violates minconfidence %v", r, q.MinConfidence)
			}
			if r.Support < q.MinSupport {
				t.Fatalf("rule %v violates minsupport %v", r, q.MinSupport)
			}
		}
	})
}

// TestParseQLAgreesWithParseQuery holds the engine-independent parse to
// the engine's: over the fuzz corpus (and two statements neither may
// accept) ParseQL and Engine.ParseQuery return the same Query wherever
// the FROM clause names the engine's dataset, and ParseQuery alone
// refuses a foreign one — the name check is all it adds.
func TestParseQLAgreesWithParseQuery(t *testing.T) {
	eng := salaryEngine(t)
	for _, src := range append([]string{
		`REPORT NONSENSE`,
		`REPORT LOCALIZED ASSOCIATION RULES FROM salary HAVING minsupport = 0.5 AND minconfidence = 0.5 USING PLAN warp`,
	}, mineQLSeeds...) {
		dataset, free, freeErr := ParseQL(src)
		bound, boundErr := eng.ParseQuery(src)
		switch {
		case freeErr != nil:
			if boundErr == nil || boundErr.Error() != freeErr.Error() {
				t.Errorf("%q: ParseQL fails with %v, ParseQuery with %v", src, freeErr, boundErr)
			}
		case !strings.EqualFold(dataset, "salary"):
			if boundErr == nil {
				t.Errorf("%q: ParseQuery accepted a statement FROM %s", src, dataset)
			}
		case boundErr != nil || !reflect.DeepEqual(free, bound):
			t.Errorf("%q: ParseQL = %+v, ParseQuery = %+v, %v", src, free, bound, boundErr)
		}
	}
}
