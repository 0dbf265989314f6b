package colarm

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colarm/internal/mip"
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
// committed v2–v4 rejection fixtures, the committed v5 and v6 streams
// (two v5 streams carry a live mask over ghost rows, which the loader
// compacts away) and truncations, bit flips and spliced bytes of three
// streams of salary with a non-empty delta — a v6 stream saved by this
// build, the committed v5 golden, and a v5 stream an older release
// saved with a nested secondary index, which the loader skips. Loading
// mines the stream's rows, so it must end in an error or an engine, and
// an engine that loaded must answer the fixed queries with a result or
// an error — never a panic, whatever the stream claimed about its own
// lengths, counts and offsets. The unmutated v6 stream must answer
// exactly as the engine it was saved from
// (TestLoadDropsNestedSecondaries holds the older one to the same), and
// the v5 golden with a stored box outside its domain exactly as the
// unedited golden: the loader computes every box and reads none.
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

	legacy, err := os.ReadFile(filepath.Join("testdata", "snapshot_v5_secondary.snapshot"))
	if err != nil {
		f.Fatal(err)
	}

	ghostDelta, err := os.ReadFile(filepath.Join("testdata", "snapshot_v5_ghost_delta.snapshot"))
	if err != nil {
		f.Fatal(err)
	}

	var golden [][]byte
	for _, name := range []string{
		"golden_v2.snapshot", "golden_v3.snapshot", "golden_v4.snapshot",
		"golden_v5.snapshot", "golden_v5_ghost.snapshot", "golden_v6.snapshot",
	} {
		data, err := os.ReadFile(filepath.Join("internal", "mip", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		golden = append(golden, data)
	}
	v5 := golden[3]
	goldenEngine, err := LoadEngine(bytes.NewReader(v5), Options{})
	if err != nil {
		f.Fatal(err)
	}
	badBox := outOfDomainBoxStream(f, v5)

	// pinned maps each stream whose answers are fixed to the engine that
	// gives them.
	pinned := map[string]*Engine{string(seed): src, string(badBox): goldenEngine}
	want := map[string][]*Result{}
	for stream, eng := range pinned {
		for _, q := range snapshotQueries {
			res, err := eng.Mine(q)
			if err != nil {
				f.Fatal(err)
			}
			res.Stats.DurationNanos = 0
			want[stream] = append(want[stream], res)
		}
	}

	f.Add(seed)
	f.Add(legacy)
	f.Add(ghostDelta)
	for _, data := range golden {
		f.Add(data)
	}
	// A deterministic sweep, so plain `go test` already walks the
	// streams: every 64th truncation and one flipped bit in every 16th
	// byte.
	for _, stream := range [][]byte{seed, v5, legacy} {
		for n := 0; n < len(stream); n += 64 {
			f.Add(stream[:n])
		}
		for i := 0; i < len(stream); i += 16 {
			flipped := bytes.Clone(stream)
			flipped[i] ^= 1 << (i / 16 % 8)
			f.Add(flipped)
		}
	}
	f.Add(badBox)

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadEngine(bytes.NewReader(data), Options{})
		answers, isPinned := want[string(data)]
		if err != nil {
			if isPinned {
				t.Fatalf("a pinned stream fails to load: %v", err)
			}
			return
		}
		for i, q := range snapshotQueries {
			res, err := eng.Mine(q)
			if !isPinned {
				continue
			}
			if err != nil {
				t.Fatalf("query %d on a pinned stream: %v", i, err)
			}
			res.Stats.DurationNanos = 0
			if !reflect.DeepEqual(res, answers[i]) {
				t.Fatalf("query %d: the stream answers\n%+v\nits pinned engine\n%+v", i, res, answers[i])
			}
		}
	})
}

// snapshotStream mirrors the v5 snapshot payload field for field: gob
// matches struct fields by name, so a test outside package mip can
// decode a v5 stream, edit its CFI slabs and encode it back.
type snapshotStream struct {
	Name  string
	Attrs []struct {
		Name   string
		Values []string
	}
	Rows         []int32
	PrimaryCount int
	Fanout       int
	ItemArena    []int32
	ItemOff      []int32
	Supports     []int32
	TidArena     []byte
	TidOff       []int64
	BoxArena     []int32
	Live         []byte
	Meta         mip.SnapshotMeta
}

// outOfDomainBoxStream is the v5 stream with the first CFI's stored box
// stretched one value past the end of attribute 0's domain. Were it
// read, the region box tests, which skip unrestricted dimensions, would
// take it as contained in every region leaving attribute 0
// unrestricted; the loader builds every box from the rows instead.
func outOfDomainBoxStream(tb testing.TB, stream []byte) []byte {
	tb.Helper()
	dec := gob.NewDecoder(bytes.NewReader(stream))
	var magic string
	var snap snapshotStream
	if err := dec.Decode(&magic); err != nil {
		tb.Fatal(err)
	}
	if err := dec.Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	snap.BoxArena[len(snap.Attrs)] = int32(len(snap.Attrs[0].Values)) // Hi[0] of CFI 0
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(magic); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Encode(&snap); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
