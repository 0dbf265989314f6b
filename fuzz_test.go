package colarm

import (
	"bytes"
	"os"
	"path/filepath"
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

// snapshotQueries are the fixed queries FuzzLoadSnapshot asks of every
// engine a mutated stream restores: the optimizer's choice at a
// localized count of 1, which the applicability gate sends to ARM; a
// forced MIP plan; and a forced ARM.
var snapshotQueries = []Query{
	{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}, "Age": {"30-40"}}, MinSupport: 0.2, MinConfidence: 0.5},
	{Range: map[string][]string{"Gender": {"F"}}, ItemAttributes: []string{"Age", "Salary"}, MinSupport: 0.5, MinConfidence: 0.8, Plan: SSEUV},
	{MinSupport: 0.4, MinConfidence: 0.6, MaxConsequent: 1, Plan: ARM},
}

// snapshotSeedEngine is the engine FuzzLoadSnapshot's seed stream is
// saved from: salary at primary 0.18 with one buffered insert and one
// tombstone.
func snapshotSeedEngine(t testing.TB) *Engine {
	t.Helper()
	eng := salaryEngine(t)
	if _, err := eng.Ingest([]map[string]string{{
		"Company": "Google", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "F", "Age": "30-40", "Salary": "90K-120K",
	}}, []int{3}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// FuzzLoadSnapshot feeds LoadEngine hostile snapshot streams: the
// committed v2–v5 rejection fixtures, the committed v6 golden and
// truncations, bit flips and spliced bytes of two v6 streams of salary
// with a non-empty delta — one saved by this build and the committed
// golden. Loading mines the stream's rows, so it must end in an error
// or an engine, and an engine that loaded must answer the fixed queries
// with a result or an error — never a panic, whatever the stream
// claimed about its own lengths and counts. The unmutated saved stream
// must answer exactly as the engine it was saved from.
//
// A mutated stream that still loads may answer differently: a flipped
// row value is a different, valid dataset, and the format carries no
// checksum to tell it from the original.
func FuzzLoadSnapshot(f *testing.F) {
	src := snapshotSeedEngine(f)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()

	var golden [][]byte
	for _, name := range []string{
		"golden_v2.snapshot", "golden_v3.snapshot", "golden_v4.snapshot",
		"golden_v5.snapshot", "golden_v6.snapshot",
	} {
		data, err := os.ReadFile(filepath.Join("internal", "mip", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		golden = append(golden, data)
	}

	var want []*Result
	for _, q := range snapshotQueries {
		res, err := src.Mine(q)
		if err != nil {
			f.Fatal(err)
		}
		res.Stats.DurationNanos = 0
		want = append(want, res)
	}

	f.Add(seed)
	for _, data := range golden {
		f.Add(data)
	}
	// A deterministic sweep, so plain `go test` already walks the
	// streams: every 4th truncation and one flipped bit in every 2nd
	// byte.
	for _, stream := range [][]byte{seed, golden[len(golden)-1]} {
		for n := 0; n < len(stream); n += 4 {
			f.Add(stream[:n])
		}
		for i := 0; i < len(stream); i += 2 {
			flipped := bytes.Clone(stream)
			flipped[i] ^= 1 << (i / 2 % 8)
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadEngine(bytes.NewReader(data), Options{})
		isPinned := bytes.Equal(data, seed)
		if err != nil {
			if isPinned {
				t.Fatalf("the saved stream fails to load: %v", err)
			}
			return
		}
		for i, q := range snapshotQueries {
			res, err := eng.Mine(q)
			if !isPinned {
				continue
			}
			if err != nil {
				t.Fatalf("query %d on the saved stream: %v", i, err)
			}
			res.Stats.DurationNanos = 0
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("query %d: the saved stream answers\n%+v\nthe engine it was saved from\n%+v", i, res, want[i])
			}
		}
	})
}
