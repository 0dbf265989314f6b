package mip

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/qerr"
	"colarm/internal/relation"
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

// TestReadSnapshotRejectsUnknownVersion pins that only the v6 and v5
// magic strings are accepted.
func TestReadSnapshotRejectsUnknownVersion(t *testing.T) {
	for _, magic := range []string{"COLARM-MIP-v1", "COLARM-MIP-v7", "something else"} {
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

// snapshotV5 is the v5 payload: the v6 fields plus the CFI slabs v6
// dropped. CFI i owned ItemArena[ItemOff[i]:ItemOff[i+1]],
// TidArena[TidOff[i]:TidOff[i+1]] (a bitset.Set binary encoding) and
// BoxArena[i*2n : (i+1)*2n] (n Lo values then n Hi values). Nothing
// reads the slabs any more; tests use this type to edit them.
type snapshotV5 struct {
	Name         string
	Attrs        []snapAttr
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
	Meta         SnapshotMeta
}

// TestBoxOutsideDomainRejected pins the box-domain precondition of the
// region box tests: Validate reports a *BoxDomainError for an index
// holding a box past, before or inverted on its domain. A v5 stream
// whose box arena holds such a box loads all the same, to the index the
// unedited stream loads to: the loader builds every box from the rows
// and never reads a stored one.
func TestBoxOutsideDomainRejected(t *testing.T) {
	idx, err := Build(datagen.Salary(), Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden_v5.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(data))
	var magic string
	var snap snapshotV5
	if err := dec.Decode(&magic); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	n, card := len(snap.Attrs), int32(len(snap.Attrs[0].Values))
	stored := len(snap.Supports) - 1
	lo, hi := stored*2*n, stored*2*n+n // dimension 0 of the last stored box
	cfi := idx.NumMIPs() - 1
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
		got, _, err := ReadSnapshot(&out)
		if err != nil {
			t.Errorf("%s: a v5 stream with a stored box outside its domain: load err = %v", tc.name, err)
		} else if !reflect.DeepEqual(got.Boxes, want.Boxes) || got.NumMIPs() != want.NumMIPs() {
			t.Errorf("%s: the stream loads to other boxes than the unedited one", tc.name)
		}

		box := idx.Boxes[cfi].Clone()
		box.Lo[0], box.Hi[0] = tc.lo, tc.hi
		held := *idx
		held.Boxes = append([]itemset.Box(nil), idx.Boxes...)
		held.Boxes[cfi] = box
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
