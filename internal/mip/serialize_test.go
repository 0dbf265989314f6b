package mip

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/qerr"
	"colarm/internal/relation"
	"colarm/internal/rtree"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := datagen.Salary()
	idx, err := Build(d, Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same shape.
	if got.NumMIPs() != idx.NumMIPs() {
		t.Fatalf("MIPs %d != %d", got.NumMIPs(), idx.NumMIPs())
	}
	if got.PrimaryCount != idx.PrimaryCount {
		t.Error("primary count lost")
	}
	if got.Dataset.NumRecords() != d.NumRecords() || got.Dataset.NumAttrs() != d.NumAttrs() {
		t.Fatal("dataset shape lost")
	}
	// Same content: every CFI with identical items, support and box.
	for id := 0; id < idx.NumMIPs(); id++ {
		a, b := idx.ITTree.Set(id), got.ITTree.Set(id)
		if !a.Items.Equal(b.Items) || a.Support != b.Support || !a.Tids.Equal(b.Tids) {
			t.Fatalf("CFI %d differs after round trip", id)
		}
		if !idx.RTree.Box(id).ContainsBox(got.RTree.Box(id)) || !got.RTree.Box(id).ContainsBox(idx.RTree.Box(id)) {
			t.Fatalf("box %d differs after round trip", id)
		}
	}
	// Same query behavior: identical R-tree search results.
	reg, err := got.RegionFromSelections(map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}})
	if err != nil {
		t.Fatal(err)
	}
	count := func(x *Index) int {
		n := 0
		for id := 0; id < x.NumMIPs(); id++ {
			if reg.Relation(x.RTree.Box(id)) != itemset.Disjoint {
				n++
			}
		}
		return n
	}
	if count(idx) != count(got) {
		t.Error("overlap structure differs after round trip")
	}
	// Dataset values preserved exactly.
	for r := 0; r < d.NumRecords(); r++ {
		for a := 0; a < d.NumAttrs(); a++ {
			if d.ValueString(r, a) != got.Dataset.ValueString(r, a) {
				t.Fatalf("cell (%d,%d) lost", r, a)
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, _, err := ReadSnapshot(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage must error")
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream must error")
	}
}

func TestReadIndexRejectsCorruptedSnapshot(t *testing.T) {
	d := datagen.Salary()
	idx, err := Build(d, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the payload; the decoder or the
	// consistency checks must reject the result (never panic).
	for _, off := range []int{buf.Len() / 2, buf.Len() / 3, buf.Len() - 10} {
		data := append([]byte(nil), buf.Bytes()...)
		data[off] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("corruption at %d caused panic: %v", off, r)
				}
			}()
			if got, _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
				// Decoding may succeed by luck; the index must then at
				// least validate.
				if vErr := got.Validate(); vErr != nil {
					t.Logf("corruption at %d passed decode but failed validate (ok): %v", off, vErr)
				}
			}
		}()
	}
}

// TestReadSnapshotV2Compat pins what is left of compatibility with the
// v2, v3 and v4 formats of earlier releases: a typed refusal decided by
// the magic string alone. The payload behind each legacy magic is not a
// snapshot of any version, so an attempt to decode it would surface as
// a gob error instead of ErrSnapshotVersion.
func TestReadSnapshotV2Compat(t *testing.T) {
	for _, magic := range []string{"COLARM-MIP-v2", "COLARM-MIP-v3", "COLARM-MIP-v4"} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(magic); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode([]float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(&buf); !errors.Is(err, qerr.ErrSnapshotVersion) {
			t.Errorf("magic %q: err = %v, want ErrSnapshotVersion", magic, err)
		}
	}
}

// TestReadSnapshotRejectsUnknownVersion pins that only the v6 magic
// string is accepted: a v5 magic ahead of a well-formed v6 payload is
// refused all the same.
func TestReadSnapshotRejectsUnknownVersion(t *testing.T) {
	for _, magic := range []string{"COLARM-MIP-v1", "COLARM-MIP-v5", "COLARM-MIP-v7", "something else"} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(magic); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&snapshot{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(&buf); !errors.Is(err, qerr.ErrSnapshotVersion) {
			t.Errorf("magic %q: err = %v, want ErrSnapshotVersion", magic, err)
		}
	}
}

// TestBoxOutsideDomainRejected pins the box-domain precondition of the
// region box tests: Validate reports a *BoxDomainError for an index
// holding a box past, before or inverted on its domain.
func TestBoxOutsideDomainRejected(t *testing.T) {
	idx, err := Build(datagen.Salary(), Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	cfi, card := idx.NumMIPs()-1, int32(len(idx.Dataset.Attrs[0].Values))
	for _, tc := range []struct {
		name   string
		lo, hi int32
	}{
		{"past the domain", 0, card},
		{"before the domain", -1, 0},
		{"inverted", 1, 0},
	} {
		// Plant the box by repacking the index's boxes with it.
		dims := idx.RTree.Dims()
		boxes, sups := make([]int32, 0, idx.NumMIPs()*2*dims), make([]int32, idx.NumMIPs())
		for id := range sups {
			b := idx.RTree.Box(id)
			boxes = append(append(boxes, b.Lo...), b.Hi...)
			sups[id] = int32(idx.ITTree.Support(id))
		}
		boxes[cfi*2*dims], boxes[cfi*2*dims+dims] = tc.lo, tc.hi
		held := *idx
		if held.RTree, err = rtree.Bulk(boxes, sups, dims, idx.RTree.Fanout()); err != nil {
			t.Fatal(err)
		}
		var be *BoxDomainError
		if err := held.Validate(); !errors.As(err, &be) || be.CFI != cfi || be.Dim != 0 {
			t.Errorf("%s: Validate = %v, want a *BoxDomainError for CFI %d dimension 0", tc.name, err, cfi)
		}
	}
	if err := idx.Validate(); err != nil {
		t.Errorf("the unmodified index: Validate = %v", err)
	}
}

// TestSnapshotOfNoRecords: an index of no records is built at
// CountFor's floor of 1, so that count loads back although it exceeds
// the records; the loader refuses every other count past them.
func TestSnapshotOfNoRecords(t *testing.T) {
	b := relation.NewBuilder("empty", "A", "B")
	b.AddValue(0, "a")
	b.AddValue(1, "b")
	idx, err := Build(b.Build(), Options{PrimarySupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for count, ok := range map[int]bool{1: true, 0: false, 2: false} {
		held := *idx
		held.PrimaryCount = count
		var buf bytes.Buffer
		if err := held.WriteSnapshot(&buf, SnapshotMeta{Primary: 0.5}); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadSnapshot(&buf)
		if (err == nil) != ok {
			t.Errorf("primary count %d over no records: err = %v, want loaded %v", count, err, ok)
		} else if ok && got.NumMIPs() != 0 {
			t.Errorf("an index of no records loads with %d MIPs", got.NumMIPs())
		}
	}
}
