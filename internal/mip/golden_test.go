package mip

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/qerr"
)

// The golden corpus pins the snapshot format: a committed v6 reference
// stream of a deterministic index, plus the v2–v5 streams of earlier
// releases, kept as rejection fixtures. TestGoldenSnapshotCompat asserts
// the v6 stream loads and re-serializes to the bytes a fresh build
// produces, and every legacy stream fails with the typed version error.
//
// Byte comparisons are done between streams written in the SAME
// process: gob allocates wire type ids from a process-global registry,
// so the exact bytes of a stream depend on which gob types were
// encoded earlier in the process. Raw committed bytes are therefore
// only asserted to LOAD (self-describing streams), while equality is
// asserted between in-process re-serializations.
//
// Regenerate the v6 stream with:
//
//	COLARM_WRITE_GOLDEN=1 go test ./internal/mip/ -run TestWriteGoldenSnapshots
//
// Regeneration is only legitimate when introducing a new current
// format. The v2–v5 files describe formats no writer exists for any
// more; they are never rewritten.

// goldenPlainIndex builds the deterministic index the v6 golden
// describes: the paper's salary dataset at the usual thresholds.
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

// TestWriteGoldenSnapshots regenerates the committed v6 stream;
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
	var v6 bytes.Buffer
	if err := plain.WriteSnapshot(&v6, meta); err != nil {
		t.Fatal(err)
	}
	write("golden_v6.snapshot", v6.Bytes())
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

// reserialize writes an index back out with the current (v6) writer.
func reserialize(t *testing.T, idx *Index, meta SnapshotMeta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshotCompat loads the committed v6 reference stream and
// asserts it restores to exactly the index a fresh deterministic build
// produces: re-serializing the load matches the fresh build bit for bit
// and is a fixed point. Every committed stream of a retired format
// (v2–v5) is refused with the typed version error.
func TestGoldenSnapshotCompat(t *testing.T) {
	// The v6 stream is the one reference group; the subtest name is
	// kept from when compacted ghost streams formed a second group.
	t.Run("plain", func(t *testing.T) {
		freshBytes := reserialize(t, goldenPlainIndex(t), goldenPlainMeta())
		refIdx, refMeta := loadGolden(t, "golden_v6.snapshot")
		refBytes := reserialize(t, refIdx, refMeta)
		// The corpus must describe what the current builder produces for the
		// same deterministic inputs.
		if !bytes.Equal(refBytes, freshBytes) {
			t.Fatal("golden_v6.snapshot does not load to the fresh deterministic build")
		}
		// Loading the re-serialized bytes and writing again is a fixed point.
		againIdx, againMeta, err := ReadSnapshot(bytes.NewReader(refBytes))
		if err != nil {
			t.Fatalf("golden_v6.snapshot does not round-trip: %v", err)
		}
		if !bytes.Equal(reserialize(t, againIdx, againMeta), refBytes) {
			t.Fatal("golden_v6.snapshot: re-serialization is not a fixed point")
		}

		for _, file := range []string{"golden_v2.snapshot", "golden_v3.snapshot", "golden_v4.snapshot", "golden_v5.snapshot"} {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatalf("rejection fixture missing: %v", err)
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, qerr.ErrSnapshotVersion) {
				t.Fatalf("%s: err = %v, want ErrSnapshotVersion", file, err)
			}
		}
	})
}
