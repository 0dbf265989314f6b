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
// loaded engine would act on is checked against the index it rides with.
func TestLoadEngineRejectsInconsistentMeta(t *testing.T) {
	eng := salaryEngine(t)
	other, err := ReadCSV("tiny", strings.NewReader("A,B\nx,y\nx,y\nx,z\nw,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	otherEng, err := Open(other, Options{PrimarySupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var foreign, own bytes.Buffer
	if err := otherEng.Save(&foreign); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&own); err != nil {
		t.Fatal(err)
	}
	for name, meta := range map[string]mip.SnapshotMeta{
		"primary above 1":  {Primary: 5},
		"primary negative": {Primary: -0.18},
		"primary NaN":      {Primary: math.NaN()},
		"secondary over other records": {Primary: 0.18,
			Secondaries: []mip.SecondarySnapshot{{Primary: 0.05, Blob: foreign.Bytes()}}},
		"secondary primary out of range": {Primary: 0.18,
			Secondaries: []mip.SecondarySnapshot{{Primary: 7, Blob: own.Bytes()}}},
	} {
		var buf bytes.Buffer
		if _, err := eng.eng.Index.WriteSnapshot(&buf, meta); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(&buf, Options{}); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
	// The same index under its own records is what Save writes.
	var buf bytes.Buffer
	if _, err := eng.eng.Index.WriteSnapshot(&buf, mip.SnapshotMeta{Primary: 0.18,
		Secondaries: []mip.SecondarySnapshot{{Primary: 0.18, Blob: own.Bytes()}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{}); err != nil {
		t.Errorf("consistent snapshot refused: %v", err)
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
// physical design the snapshot stores, so an engine rebuilt after a
// save/load cycle packs its tree exactly as the rebuilt original does.
func TestLoadedEngineKeepsFanout(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18, Fanout: 2})
	if err != nil {
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
	q := Query{MinSupport: 0.3, MinConfidence: 0.5, Plan: SEV}
	var visited [2]int
	for i, e := range []*Engine{eng, loaded} {
		fresh, err := e.Rebuild(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		visited[i] = res.Stats.RNodesVisited
	}
	if visited[0] != visited[1] {
		t.Fatalf("S-E-V visits %d R-tree nodes on the rebuilt original, %d on the rebuilt reload: the loaded engine lost its fanout",
			visited[0], visited[1])
	}
}

// TestGhostSnapshotCompacts: a snapshot whose index keeps deleted rows
// as ghosts outside a live mask (what sharded rebuilds once wrote)
// still loads and answers over the live rows only, and its first
// rebuild compacts the ghosts away.
func TestGhostSnapshotCompacts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("internal", "mip", "testdata", "golden_v5_ghost.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := LoadEngine(bytes.NewReader(data), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is salary at primary 0.18, fanout 4, with records 3
	// and 7 ghosted: a monolith that deletes them and rebuilds holds
	// exactly the live rows.
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Open(ds, Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mono.Ingest(nil, []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	if mono, err = mono.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	agree := func(stage string, e *Engine) {
		t.Helper()
		for _, plan := range []Plan{SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
			q := Query{
				Range:         map[string][]string{"Gender": {"F"}},
				MinSupport:    0.4,
				MinConfidence: 0.6,
				Plan:          plan,
			}
			want, err := mono.Mine(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Mine(q)
			if err != nil {
				t.Fatalf("%s plan %s: %v", stage, plan, err)
			}
			sw, sg := want.Stats, got.Stats
			sw.DurationNanos, sg.DurationNanos = 0, 0
			if !reflect.DeepEqual(got.Rules, want.Rules) || sg != sw {
				t.Fatalf("%s plan %s diverges from a monolith over the live rows\ngot:  %+v %v\nwant: %+v %v",
					stage, plan, sg, got.Rules, sw, want.Rules)
			}
			if len(want.Rules) == 0 {
				t.Fatalf("plan %s: no rules, the comparison is vacuous", plan)
			}
		}
	}
	agree("loaded", ghost)

	rebuilt, err := ghost.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	agree("rebuilt", rebuilt)
	if got, want := rebuilt.Dataset().NumRecords(), mono.Dataset().NumRecords(); got != want {
		t.Fatalf("rebuilt engine holds %d records, the live rows are %d", got, want)
	}
	var buf bytes.Buffer
	if err := rebuilt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	idx, _, err := mip.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Live != nil {
		t.Fatalf("rebuilt snapshot still carries a live mask over %d records", idx.Live.Len())
	}
}
