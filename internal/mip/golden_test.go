package mip

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/qerr"
)

// The golden corpus pins the snapshot format: committed v5 reference
// streams of two deterministic indexes, plus the crafted v2, v3 and v4
// streams of earlier releases for the same indexes, kept as rejection
// fixtures. TestGoldenSnapshotCompat asserts every v5 stream loads and
// re-serializes to the bytes a fresh build produces, and every legacy
// stream fails with the typed version error.
//
// Byte comparisons are done between streams written in the SAME
// process: gob allocates wire type ids from a process-global registry,
// so the exact bytes of a stream depend on which gob types were
// encoded earlier in the process. Raw committed bytes are therefore
// only asserted to LOAD (self-describing streams), while equality is
// asserted between in-process re-serializations.
//
// Regenerate the v5 streams with:
//
//	COLARM_WRITE_GOLDEN=1 go test ./internal/mip/ -run TestWriteGoldenSnapshots
//
// Regeneration is only legitimate when introducing a new current
// format. The v2/v3/v4 files describe frozen formats no writer exists
// for any more; they are never rewritten.

// goldenPlainIndex builds the deterministic ghost-free index the plain
// goldens describe: the paper's salary dataset at the usual thresholds.
func goldenPlainIndex(t testing.TB) *Index {
	t.Helper()
	idx, err := Build(datagen.Salary(), Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// goldenPlainMeta carries a non-trivial engine state so the metadata
// fields are pinned too.
func goldenPlainMeta() SnapshotMeta {
	return SnapshotMeta{
		Primary:    0.18,
		Generation: 2,
		DeltaRows:  [][]int32{{0, 1, 0, 1, 0, 1}, {1, 0, 1, 0, 1, 0}},
		DeltaDels:  []int32{3},
	}
}

// goldenGhostIndex builds the deterministic ghost-carrying index the
// ghost goldens describe: salary with two records consolidated away —
// the layout sharded rebuilds used to write (ids stable, deleted rows
// outside the Live mask, catalog mined over live records). No writer
// produces it any more; the reader still accepts it.
func goldenGhostIndex(t testing.TB) *Index {
	t.Helper()
	d := datagen.Salary()
	sp := itemset.NewSpace(d)
	live := bitset.New(d.NumRecords())
	live.Fill()
	live.Remove(3)
	live.Remove(7)
	tids := itemset.ItemTidsets(d, sp)
	for _, s := range tids {
		s.And(live)
		s.Optimize()
	}
	primaryCount := charm.CountFor(0.18, live.Count())
	res, err := charm.MineTidsets(tids, d.NumRecords(), primaryCount)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Assemble(d, sp, tids, res, primaryCount, Options{Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx.Live = live
	return idx
}

// TestWriteGoldenSnapshots regenerates the committed v5 streams;
// guarded so a normal test run never rewrites testdata.
func TestWriteGoldenSnapshots(t *testing.T) {
	if os.Getenv("COLARM_WRITE_GOLDEN") == "" {
		t.Skip("set COLARM_WRITE_GOLDEN=1 to regenerate the golden snapshot corpus")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	plain := goldenPlainIndex(t)
	meta := goldenPlainMeta()
	var v5 bytes.Buffer
	if _, err := plain.WriteSnapshot(&v5, meta); err != nil {
		t.Fatal(err)
	}
	write("golden_v5.snapshot", v5.Bytes())

	ghost := goldenGhostIndex(t)
	var v5g bytes.Buffer
	if _, err := ghost.WriteSnapshot(&v5g, SnapshotMeta{Primary: 0.18, Generation: 1}); err != nil {
		t.Fatal(err)
	}
	write("golden_v5_ghost.snapshot", v5g.Bytes())
}

// loadGolden reads and restores one committed stream.
func loadGolden(t *testing.T, file string) (*Index, SnapshotMeta) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("golden corpus missing (regenerate with COLARM_WRITE_GOLDEN=1): %v", err)
	}
	idx, meta, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("loading %s: %v", file, err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("%s restored an invalid index: %v", file, err)
	}
	return idx, meta
}

// reserialize writes an index back out with the current (v5) writer.
func reserialize(t *testing.T, idx *Index, meta SnapshotMeta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteSnapshot(&buf, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshotCompat loads every committed v5 reference stream
// and asserts it restores to exactly the index a fresh deterministic
// build produces — re-serializing the load is a fixed point and matches
// the fresh build bit for bit — and that every committed legacy stream
// of the same index is refused with the typed version error.
func TestGoldenSnapshotCompat(t *testing.T) {
	groups := []struct {
		name   string
		ref    string   // committed v5 reference stream
		legacy []string // committed streams of retired formats
		fresh  func() []byte
	}{
		{
			name:   "plain",
			ref:    "golden_v5.snapshot",
			legacy: []string{"golden_v2.snapshot", "golden_v3.snapshot"},
			fresh: func() []byte {
				return reserialize(t, goldenPlainIndex(t), goldenPlainMeta())
			},
		},
		{
			name:   "ghost",
			ref:    "golden_v5_ghost.snapshot",
			legacy: []string{"golden_v4.snapshot"},
			fresh: func() []byte {
				return reserialize(t, goldenGhostIndex(t), SnapshotMeta{Primary: 0.18, Generation: 1})
			},
		},
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			refIdx, refMeta := loadGolden(t, g.ref)
			refBytes := reserialize(t, refIdx, refMeta)

			// The v5 reference round-trips: loading the re-serialized
			// bytes and writing again is a fixed point.
			againIdx, againMeta, err := ReadSnapshot(bytes.NewReader(refBytes))
			if err != nil {
				t.Fatalf("%s does not round-trip: %v", g.ref, err)
			}
			if !bytes.Equal(reserialize(t, againIdx, againMeta), refBytes) {
				t.Fatalf("%s: re-serialization is not a fixed point", g.ref)
			}

			for _, file := range g.legacy {
				data, err := os.ReadFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatalf("rejection fixture missing: %v", err)
				}
				if _, _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, qerr.ErrSnapshotVersion) {
					t.Fatalf("%s: err = %v, want ErrSnapshotVersion", file, err)
				}
			}

			// The corpus must describe what the current builder
			// produces for the same deterministic inputs.
			if freshBytes := g.fresh(); !bytes.Equal(freshBytes, refBytes) {
				t.Fatalf("fresh deterministic build no longer matches the committed %s", g.ref)
			}
		})
	}
}
