package colarm

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/mip"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	eng := salaryEngine(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPartitions() != eng.NumPartitions() {
		t.Fatalf("partitions %d != %d", loaded.NumPartitions(), eng.NumPartitions())
	}
	// Identical query answers.
	q := Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
		Plan:           SSEUV,
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
		t.Fatalf("rules %d != %d after reload", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		if a.Rules[i].String() != b.Rules[i].String() {
			t.Fatalf("rule %d differs after reload", i)
		}
	}
	// The query language works on the restored engine too.
	if _, err := loaded.MineQL(`REPORT LOCALIZED ASSOCIATION RULES FROM salary
		HAVING minsupport = 0.45 AND minconfidence = 0.8`); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	eng := salaryEngine(t)
	path := filepath.Join(t.TempDir(), "salary.colarm")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPartitions() != eng.NumPartitions() {
		t.Error("partitions lost through file round trip")
	}
	if _, err := LoadEngineFile(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Error("missing file must error")
	}
}

// TestSaveFileKeepsOldSnapshotOnFailure injects a writer that fails
// half-way: the snapshot already at the path must survive byte for
// byte, no temporary file may stay behind, and a later successful save
// must replace it with one that loads.
func TestSaveFileKeepsOldSnapshotOnFailure(t *testing.T) {
	eng := salaryEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "salary.colarm")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(good[:len(good)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic = %v, want the writer's error", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, good) {
		t.Fatalf("previous snapshot not intact after a failed save (err %v, %d bytes, want %d)", err, len(after), len(good))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed save left %d directory entries, want only the snapshot", len(entries))
	}

	if _, err := eng.Ingest(nil, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Staleness().Tombstones; got != 1 {
		t.Errorf("reloaded snapshot carries %d tombstones, want the second save's 1", got)
	}
	if err := eng.SaveFile(filepath.Join(dir, "no-such-dir", "x")); err == nil {
		t.Error("save into a missing directory must error")
	}
}

func TestLoadEngineErrors(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("junk"), Options{}); err == nil {
		t.Error("junk stream must error")
	}
}

// TestLoadEngineRejectsInconsistentMeta: a stream can decode cleanly and
// still describe no engine this build could have saved. The metadata a
// loaded engine would act on is checked against the index it rides with,
// and the primary count the loader mines at against the stream's
// records, before any mining: a count below 1 would ask CHARM for every
// itemset.
func TestLoadEngineRejectsInconsistentMeta(t *testing.T) {
	eng := salaryEngine(t)
	records := eng.idx.Dataset.NumRecords()
	for name, tc := range map[string]struct {
		count int
		meta  mip.SnapshotMeta
	}{
		"primary above 1":            {eng.idx.PrimaryCount, mip.SnapshotMeta{Primary: 5}},
		"primary negative":           {eng.idx.PrimaryCount, mip.SnapshotMeta{Primary: -0.18}},
		"primary NaN":                {eng.idx.PrimaryCount, mip.SnapshotMeta{Primary: math.NaN()}},
		"primary count 0":            {0, mip.SnapshotMeta{Primary: 0.18}},
		"primary count negative":     {-1, mip.SnapshotMeta{Primary: 0.18}},
		"primary count past records": {records + 1, mip.SnapshotMeta{Primary: 0.18}},
	} {
		idx := *eng.idx
		idx.PrimaryCount = tc.count
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf, tc.meta); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(&buf, Options{}); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
	// The same index under its own primary support is what Save writes.
	var buf bytes.Buffer
	if err := eng.idx.WriteSnapshot(&buf, mip.SnapshotMeta{Primary: 0.18}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{}); err != nil {
		t.Errorf("consistent snapshot refused: %v", err)
	}
}

// TestLoadUnrecordedPrimary: a snapshot written with an empty
// mip.SnapshotMeta records no primary fraction. It loads with the one
// its primary count gives over its records, and that one fraction
// serves the whole lifecycle: the engine ingests, rebuilds and saves
// again, and the rebuilt engine answers every plan as the merged view
// did before the rebuild.
func TestLoadUnrecordedPrimary(t *testing.T) {
	eng := salaryEngine(t)
	var buf bytes.Buffer
	if err := eng.idx.WriteSnapshot(&buf, mip.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(eng.idx.PrimaryCount) / float64(eng.idx.Dataset.NumRecords()); loaded.primary != want {
		t.Fatalf("loaded primary support %v, want the primary count's %v", loaded.primary, want)
	}
	insert := map[string]string{"Company": "Google", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "F", "Age": "30-40", "Salary": "90K-120K"}
	if _, err := loaded.Ingest([]map[string]string{insert, insert}, []int{3}); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5},
		{MinSupport: 0.25, MinConfidence: 0.6},
	}
	var before [][]Rule
	for _, q := range queries {
		for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
			q.Plan = p
			res, err := loaded.Mine(q)
			if err != nil {
				t.Fatal(err)
			}
			before = append(before, res.Rules)
		}
	}
	rebuilt, err := loaded.Rebuild(context.Background())
	if err != nil {
		t.Fatalf("rebuild of an engine loaded without a recorded primary: %v", err)
	}
	i := 0
	for _, q := range queries {
		for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
			q.Plan = p
			res, err := rebuilt.Mine(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rules, before[i]) {
				t.Fatalf("%+v: rebuilt rules differ from the merged view's\ngot:  %v\nwant: %v", q, res.Rules, before[i])
			}
			i++
		}
	}
	var again bytes.Buffer
	if err := rebuilt.Save(&again); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadEngine(&again, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.primary != loaded.primary || reloaded.Generation() != 1 {
		t.Fatalf("re-saved snapshot loads at primary %v generation %d, want %v and 1",
			reloaded.primary, reloaded.Generation(), loaded.primary)
	}
}

// TestSaveLoadWithDelta proves a snapshot taken mid-ingest restores to
// the exact same answers: the buffered delta and the generation ride
// along in the v2 format's metadata.
func TestSaveLoadWithDelta(t *testing.T) {
	eng := salaryEngine(t)
	rec := map[string]string{}
	for _, a := range eng.Dataset().Attributes() {
		vals, _ := eng.Dataset().Values(a)
		rec[a] = vals[len(vals)-1]
	}
	if _, err := eng.Ingest([]map[string]string{rec, rec}, []int{1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := eng.Staleness(), loaded.Staleness()
	if a.BufferedRows != b.BufferedRows || a.Tombstones != b.Tombstones || a.Generation != b.Generation {
		t.Fatalf("staleness lost in round trip: saved %+v, loaded %+v", a, b)
	}
	q := Query{MinSupport: 0.3, MinConfidence: 0.8}
	ra, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rules) != len(rb.Rules) {
		t.Fatalf("rules %d != %d after mid-ingest reload", len(ra.Rules), len(rb.Rules))
	}
	for i := range ra.Rules {
		if ra.Rules[i].String() != rb.Rules[i].String() {
			t.Fatalf("rule %d differs after mid-ingest reload", i)
		}
	}
	// The restored engine keeps the rebuild lineage: generation survives
	// a rebuild → save → load cycle.
	rebuilt, err := loaded.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rebuilt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := LoadEngine(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation() != rebuilt.Generation() || again.Generation() != 1 {
		t.Fatalf("generation %d after rebuild round trip, want 1", again.Generation())
	}
}

// TestSnapshotVersionMismatch pins the typed rejection of streams that
// are not this build's snapshot format: foreign bytes and old-format
// streams fail with ErrSnapshotVersion before any payload decode.
func TestSnapshotVersionMismatch(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("COLARM-MIP-v1 but not really"), Options{}); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("foreign stream: got %v, want ErrSnapshotVersion", err)
	}
	// A well-formed gob stream carrying the wrong magic string.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode("COLARM-MIP-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{}); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("old magic: got %v, want ErrSnapshotVersion", err)
	}
}

// TestLoadedEngineKeepsFanout: the R-tree fanout is a property of the
// physical design the snapshot stores, so the rebuild of a loaded engine
// packs its tree as the snapshot's was packed. The committed golden
// stream has fanout 4 against the default 16; without its buffered delta
// the loaded engine serves the snapshot's own tree, and its rebuild
// re-mines the same records.
func TestLoadedEngineKeepsFanout(t *testing.T) {
	f, err := os.Open(filepath.Join("internal", "mip", "testdata", "golden_v6.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	idx, meta, err := mip.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.RTree.Fanout(); got != 4 {
		t.Fatalf("golden snapshot has fanout %d, want 4", got)
	}
	loaded, err := engineFromIndex(idx, mip.SnapshotMeta{Primary: meta.Primary}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := loaded.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{MinSupport: 0.3, MinConfidence: 0.5, Plan: SEV}
	var visited [2]int
	for i, e := range []*Engine{loaded, fresh} {
		res, err := e.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		visited[i] = res.Stats.RNodesVisited
	}
	if visited[0] != visited[1] {
		t.Fatalf("S-E-V visits %d R-tree nodes on the loaded engine, %d on its rebuild: the rebuild lost the fanout",
			visited[0], visited[1])
	}
}

// TestSnapshotHoldsTheRelation: a snapshot of full-scale chess @ 0.70
// is its rows, not its 8 014 CFIs, so it stays under 1 MB, and the
// engine it loads to — which mines the rows again — answers as the
// saved engine: the same estimates and, under every forced plan and
// Auto, the same rules and Stats, with and without a buffered delta.
func TestSnapshotHoldsTheRelation(t *testing.T) {
	eng := openGenerated(t, datagen.ChessConfig(1), 0.70)
	ds := eng.Dataset()
	attrs := ds.Attributes()
	vals, err := ds.Values(attrs[1])
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{MinSupport: 0.80, MinConfidence: 0.9, MaxConsequent: 1},
		{Range: map[string][]string{attrs[1]: vals[:len(vals)/2+1]}, MinSupport: 0.85, MinConfidence: 0.9, MaxConsequent: 2},
		{ItemAttributes: attrs[:len(attrs)/2], MinSupport: 0.85, MinConfidence: 0.85},
	}
	roundTrip := func(stage string) {
		t.Helper()
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= 1<<20 {
			t.Errorf("%s: chess @ 0.70 saves %d bytes, want under 1 MB", stage, buf.Len())
		}
		loaded, err := LoadEngine(&buf, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := eng.Staleness(), loaded.Staleness(); a != b {
			t.Fatalf("%s: staleness %+v, the saved engine's %+v", stage, b, a)
		}
		for i, q := range queries {
			want, err := eng.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: estimates %+v, the saved engine's %+v", stage, i, got, want)
			}
			for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
				q.Plan = p
				a, err := eng.Mine(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.Mine(q)
				if err != nil {
					t.Fatal(err)
				}
				a.Stats.DurationNanos, b.Stats.DurationNanos = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s query %d plan %s: the loaded engine answers\n%+v\nthe saved engine\n%+v", stage, i, p, b, a)
				}
			}
		}
	}
	roundTrip("frozen")

	var inserts []map[string]string
	for r := 0; r < 8; r++ {
		rec := map[string]string{}
		for a, v := range ds.Record(r * 97) {
			rec[attrs[a]] = v
		}
		inserts = append(inserts, rec)
	}
	if _, err := eng.Ingest(inserts, []int{1, 2, 500}); err != nil {
		t.Fatal(err)
	}
	roundTrip("delta")
}
