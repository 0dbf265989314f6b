package colarm

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
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
	for name, meta := range map[string]mip.SnapshotMeta{
		"primary above 1":  {Primary: 5},
		"primary negative": {Primary: -0.18},
		"primary NaN":      {Primary: math.NaN()},
	} {
		var buf bytes.Buffer
		if _, err := eng.eng.Index.WriteSnapshot(&buf, meta); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(&buf, Options{}); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
	// The same index under its own primary support is what Save writes.
	var buf bytes.Buffer
	if _, err := eng.eng.Index.WriteSnapshot(&buf, mip.SnapshotMeta{Primary: 0.18}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, Options{}); err != nil {
		t.Errorf("consistent snapshot refused: %v", err)
	}
}

// TestLoadDropsNestedSecondaries: a v5 snapshot an older release saved
// with a nested secondary index beside the base index (the
// FuzzLoadSnapshot seed recipe plus a secondary at primary 0.05) loads
// as the one index it was saved from. It answers every snapshot query
// as the same recipe without the secondary does — the gate-forced query
// runs ARM again — and saves the same bytes.
func TestLoadDropsNestedSecondaries(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot_v5_secondary.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotSeedEngine(t)
	for i, q := range snapshotQueries {
		a, err := want.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Mine(q)
		if err != nil {
			t.Fatalf("query %d on the loaded snapshot: %v", i, err)
		}
		a.Stats.DurationNanos, b.Stats.DurationNanos = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %d: the loaded snapshot answers\n%+v\nthe one-index engine\n%+v", i, b, a)
		}
	}
	var wb, lb bytes.Buffer
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&lb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), lb.Bytes()) {
		t.Errorf("the loaded snapshot saves %d bytes, the one-index engine %d", lb.Len(), wb.Len())
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
// as ghosts outside a live mask (what sharded rebuilds once wrote) loads
// compacted at every shard count. The engine holds only the live rows,
// under ids 0..8: it refuses a delete of id 9, answers like a monolith
// over the live rows, saves that monolith's bytes with no mask, and its
// first rebuild changes nothing. The same stream with a buffered delta —
// whose deletes name a live base record, a ghost and a buffered row —
// answers like the monolith after the same batch, its ids moved into the
// compacted space and the ghost's delete dropped.
func TestGhostSnapshotCompacts(t *testing.T) {
	// The fixtures are salary at primary 0.18, fanout 4, with records 3
	// and 7 ghosted: a monolith that deletes them and rebuilds holds
	// exactly the live rows.
	liveMono := func(t *testing.T) *Engine {
		t.Helper()
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
		return mono
	}
	agree := func(t *testing.T, stage string, mono, e *Engine) {
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
	load := func(t *testing.T, path string, shards int) *Engine {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := LoadEngine(bytes.NewReader(data), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// save returns e's snapshot and the live mask it carries, read by
	// decoding the payload into its one Live field (gob skips the rest).
	save := func(t *testing.T, e *Engine) ([]byte, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		data := bytes.Clone(buf.Bytes())
		dec := gob.NewDecoder(&buf)
		var magic string
		var payload struct{ Live []byte }
		if err := dec.Decode(&magic); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&payload); err != nil {
			t.Fatal(err)
		}
		return data, payload.Live
	}

	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("K=%d", shards), func(t *testing.T) {
			mono := liveMono(t)
			monoBytes, _ := save(t, mono)
			ghost := load(t, filepath.Join("internal", "mip", "testdata", "golden_v5_ghost.snapshot"), shards)
			if got := ghost.Dataset().NumRecords(); got != 9 {
				t.Fatalf("loaded engine holds %d records, the live rows are 9", got)
			}
			if _, err := ghost.Ingest(nil, []int{9}); !errors.Is(err, ErrBadRecordID) {
				t.Fatalf("deleting id 9 past the live rows: err = %v, want ErrBadRecordID", err)
			}
			if st := ghost.Staleness(); st.Version != 0 || st.Tombstones != 0 {
				t.Fatalf("a refused delete left version %d, %d tombstones", st.Version, st.Tombstones)
			}
			agree(t, "loaded", mono, ghost)
			data, mask := save(t, ghost)
			if len(mask) != 0 {
				t.Fatalf("the loaded engine saves a live mask of %d bytes", len(mask))
			}
			if !bytes.Equal(data, monoBytes) {
				t.Fatal("the loaded engine saves other bytes than a monolith over the live rows")
			}

			rebuilt, err := ghost.Rebuild(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			agree(t, "rebuilt", mono, rebuilt)
			if got, want := rebuilt.Dataset().NumRecords(), mono.Dataset().NumRecords(); got != want {
				t.Fatalf("rebuilt engine holds %d records, the live rows are %d", got, want)
			}
			if _, mask := save(t, rebuilt); len(mask) != 0 {
				t.Fatalf("rebuilt snapshot still carries a live mask of %d bytes", len(mask))
			}

			// The delta fixture buffers these two rows and deletes base id
			// 5, ghost 3 and buffered id 12 (the second row). Compacted,
			// that is base id 4 and buffered id 10; the ghost is gone.
			withDelta := load(t, filepath.Join("testdata", "snapshot_v5_ghost_delta.snapshot"), shards)
			rows := [][]int32{{0, 1, 0, 1, 0, 1}, {1, 0, 1, 0, 1, 0}}
			if _, err := mono.eng.Ingest(rows, []int{4, 10}); err != nil {
				t.Fatal(err)
			}
			if got, want := withDelta.Staleness(), mono.Staleness(); got.Version != 1 || got.BufferedRows != 1 || got.Tombstones != 2 ||
				got.BufferedRows != want.BufferedRows || got.Tombstones != want.Tombstones {
				t.Fatalf("loaded delta: version %d, %d buffered, %d tombstones; the monolith after the batch: %d buffered, %d tombstones",
					got.Version, got.BufferedRows, got.Tombstones, want.BufferedRows, want.Tombstones)
			}
			agree(t, "loaded with a delta", mono, withDelta)
		})
	}
}
