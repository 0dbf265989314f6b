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
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := datagen.Salary()
	idx, err := Build(d, Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := idx.WriteSnapshot(&buf, SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteSnapshot reported %d bytes, buffer has %d", n, buf.Len())
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
		if !idx.Boxes[id].ContainsBox(got.Boxes[id]) || !got.Boxes[id].ContainsBox(idx.Boxes[id]) {
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
			if reg.Relation(x.Boxes[id]) != itemset.Disjoint {
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
	if _, err := idx.WriteSnapshot(&buf, SnapshotMeta{}); err != nil {
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

// TestReadSnapshotRejectsUnknownVersion pins that only the current magic
// string is accepted.
func TestReadSnapshotRejectsUnknownVersion(t *testing.T) {
	for _, magic := range []string{"COLARM-MIP-v1", "COLARM-MIP-v6", "something else"} {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(magic); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&snapshotV5{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(&buf); !errors.Is(err, qerr.ErrSnapshotVersion) {
			t.Errorf("magic %q: err = %v, want ErrSnapshotVersion", magic, err)
		}
	}
}

// TestBoxOutsideDomainRejected pins the box-domain precondition of the
// region box tests in both places that hold a stored box to it: a
// snapshot whose box arena puts a box past, before or inverted on its
// domain fails to load with a *BoxDomainError, and Validate reports the
// same error for an index holding such a box.
func TestBoxOutsideDomainRejected(t *testing.T) {
	idx, err := Build(datagen.Salary(), Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteSnapshot(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	var magic string
	var snap snapshotV5
	if err := dec.Decode(&magic); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	n, card := len(snap.Attrs), int32(len(snap.Attrs[0].Values))
	cfi := len(snap.Supports) - 1
	lo, hi := cfi*2*n, cfi*2*n+n // dimension 0 of the last CFI's box
	for _, tc := range []struct {
		name   string
		lo, hi int32
	}{
		{"past the domain", 0, card},
		{"before the domain", -1, 0},
		{"inverted", 1, 0},
	} {
		bad := snap
		bad.BoxArena = append([]int32(nil), snap.BoxArena...)
		bad.BoxArena[lo], bad.BoxArena[hi] = tc.lo, tc.hi
		var out bytes.Buffer
		enc := gob.NewEncoder(&out)
		if err := enc.Encode(magic); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&bad); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadSnapshot(&out)
		var be *BoxDomainError
		if !errors.As(err, &be) || be.CFI != cfi || be.Dim != 0 {
			t.Errorf("%s: load err = %v, want a *BoxDomainError for CFI %d dimension 0", tc.name, err, cfi)
		}

		box := idx.Boxes[cfi].Clone()
		box.Lo[0], box.Hi[0] = tc.lo, tc.hi
		held := *idx
		held.Boxes = append([]itemset.Box(nil), idx.Boxes...)
		held.Boxes[cfi] = box
		if err := held.Validate(); !errors.As(err, &be) || be.CFI != cfi || be.Dim != 0 {
			t.Errorf("%s: Validate = %v, want a *BoxDomainError for CFI %d dimension 0", tc.name, err, cfi)
		}
	}
	if err := idx.Validate(); err != nil {
		t.Errorf("the unmodified index: Validate = %v", err)
	}
}
