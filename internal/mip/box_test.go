package mip

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

// walkBox is the box probe as it was written over two tidsets: walk each
// unconstrained attribute in from both ends and stop at the first value
// whose item tidset shares a record with the CFI's tidset — here
// AndCount > 0, a kernel the word-vector probe does not use.
func walkBox(sp *itemset.Space, cards []int, tidsets []*bitset.Set, c charm.ClosedSet) itemset.Box {
	n := sp.NumAttrs()
	b := itemset.NewBox(n)
	constrained := make([]bool, n)
	for _, it := range c.Items {
		a := sp.AttrOf(it)
		v := int32(sp.ValueOf(it))
		b.Lo[a], b.Hi[a] = v, v
		constrained[a] = true
	}
	meets := func(a, v int) bool { return bitset.AndCount(c.Tids, tidsets[sp.ItemOf(a, v)]) > 0 }
	for a := 0; a < n; a++ {
		if constrained[a] {
			continue
		}
		lo, hi := -1, -1
		for v := 0; v < cards[a]; v++ {
			if meets(a, v) {
				lo = v
				break
			}
		}
		for v := cards[a] - 1; v >= 0; v-- {
			if meets(a, v) {
				hi = v
				break
			}
		}
		if lo < 0 {
			lo, hi = 0, cards[a]-1
		}
		b.Lo[a], b.Hi[a] = int32(lo), int32(hi)
	}
	return b
}

// scanBox is the box by definition: per attribute, the [min,max] value
// of the records in tids (the full extent when tids is empty).
func scanBox(d *relation.Dataset, cards []int, tids *bitset.Set) itemset.Box {
	n := d.NumAttrs()
	b := itemset.NewBox(n)
	for a := range cards {
		b.Lo[a], b.Hi[a] = int32(cards[a]), -1
	}
	tids.ForEach(func(r int) bool {
		for a := 0; a < n; a++ {
			v := int32(d.Value(r, a))
			b.Lo[a], b.Hi[a] = min(b.Lo[a], v), max(b.Hi[a], v)
		}
		return true
	})
	for a := range cards {
		if b.Hi[a] < 0 {
			b.Lo[a], b.Hi[a] = 0, int32(cards[a]-1)
		}
	}
	return b
}

func sameBox(a, b itemset.Box) bool {
	return a.Dims() == b.Dims() && a.ContainsBox(b) && b.ContainsBox(a)
}

// clusteredDataset draws m records over attributes of the given
// cardinalities, each record from one of four clusters that confine
// every attribute to a random sub-range of its values, so CFI boxes are
// tight on some axes and span others. extra[a] dictionary values are
// added past each attribute's drawn ones and held by no record: items
// with empty tidsets.
func clusteredDataset(rng *rand.Rand, m int, cards, extra []int) *relation.Dataset {
	names := make([]string, len(cards))
	for a := range names {
		names[a] = fmt.Sprintf("A%d", a)
	}
	b := relation.NewBuilder("boxes", names...)
	for a, card := range cards {
		for v := 0; v < card+extra[a]; v++ {
			b.AddValue(a, fmt.Sprintf("a%dv%d", a, v))
		}
	}
	const clusters = 4
	lo, hi := make([][]int, clusters), make([][]int, clusters)
	for k := range lo {
		lo[k], hi[k] = make([]int, len(cards)), make([]int, len(cards))
		for a, card := range cards {
			x, y := rng.Intn(card), rng.Intn(card)
			lo[k][a], hi[k][a] = min(x, y), max(x, y)
		}
	}
	row := make([]int, len(cards))
	for r := 0; r < m; r++ {
		k := rng.Intn(clusters)
		for a := range row {
			row[a] = lo[k][a] + rng.Intn(hi[k][a]-lo[k][a]+1)
		}
		if err := b.AddRecordIdx(row...); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// checkBoxes builds d's index at primary and holds every CFI's stored
// tidset to its items (checkTidset) and its box to the walk over that
// tidset and to the record scan. It returns the smallest and largest
// CFI support seen.
func checkBoxes(t testing.TB, label string, d *relation.Dataset, primary float64) (minSupp, maxSupp int) {
	t.Helper()
	idx, err := Build(d, Options{PrimarySupport: primary})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	minSupp = d.NumRecords() + 1
	owner := map[*bitset.Set]int{} // a built tidset -> the CFI storing it
	for id := 0; id < idx.NumMIPs(); id++ {
		c := idx.ITTree.Set(id)
		checkTidset(t, label, idx, c, id, owner)
		got := idx.RTree.Box(id)
		if want := walkBox(idx.Space, idx.Cards, idx.Tidsets, c); !sameBox(got, want) {
			t.Fatalf("%s: box of %v is %v, the tidset walk gives %v", label, c.Items, got, want)
		}
		if want := scanBox(d, idx.Cards, c.Tids); !sameBox(got, want) {
			t.Fatalf("%s: box of %v is %v, the record scan gives %v", label, c.Items, got, want)
		}
		minSupp, maxSupp = min(minSupp, c.Support), max(maxSupp, c.Support)
	}
	return minSupp, maxSupp
}

// checkTidset holds CFI id's stored tidset to the rules of Build: it is
// the AND of its items' tidsets and holds the CFI's support in records;
// it is an item's own input set exactly when some item has the CFI's
// support; any other is in Optimize's encoding and stored by no other
// CFI (owner maps each such set to the CFI that stored it).
func checkTidset(t testing.TB, label string, idx *Index, c charm.ClosedSet, id int, owner map[*bitset.Set]int) {
	t.Helper()
	n := idx.Dataset.NumRecords()
	want := bitset.New(n)
	want.Fill()
	shared := false
	for _, it := range c.Items {
		want.And(idx.Tidsets[it])
		shared = shared || idx.Tidsets[it].Count() == c.Support
	}
	if c.Tids.Len() != n || !c.Tids.Equal(want) {
		t.Fatalf("%s: CFI %v's tidset %v is not its items' common records %v", label, c.Items, c.Tids, want)
	}
	if c.Tids.Count() != c.Support {
		t.Fatalf("%s: CFI %v's tidset holds %d records, its support is %d", label, c.Items, c.Tids.Count(), c.Support)
	}
	if input := slices.Contains(idx.Tidsets, c.Tids); input != shared {
		t.Fatalf("%s: CFI %v stores an item's own set: %v; an item has its support: %v", label, c.Items, input, shared)
	}
	if shared {
		return
	}
	if prev, ok := owner[c.Tids]; ok {
		t.Fatalf("%s: CFIs %d and %d store one tidset", label, prev, id)
	}
	owner[c.Tids] = id
	canon := c.Tids.Clone()
	canon.Optimize()
	if c.Tids.Bytes() != canon.Bytes() {
		t.Fatalf("%s: CFI %v's tidset takes %d bytes, Optimize's encoding %d", label, c.Items, c.Tids.Bytes(), canon.Bytes())
	}
}

// TestBoxesMatchOracles holds the built boxes to the tidset walk and
// the record scan: on a universe of two containers with a partial last
// one, with an attribute of one value (a full-support item), with
// dictionary values no record holds (empty item tidsets), and at a
// primary support of one record, so CFIs of support 1 and of full
// support are both boxed.
func TestBoxesMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name    string
		m       int
		cards   []int
		extra   []int
		primary float64
	}{
		{"two containers", 70000, []int{5, 7, 3}, []int{0, 0, 0}, 0.01},
		{"one-value attribute", 3000, []int{1, 6, 4}, []int{0, 0, 0}, 0.02},
		{"empty item tidsets", 5000, []int{4, 5, 3}, []int{2, 0, 1}, 0.02},
		{"support 1 to full", 200, []int{1, 9, 8, 7}, []int{0, 1, 0, 0}, 1e-9},
	} {
		d := clusteredDataset(rng, tc.m, tc.cards, tc.extra)
		minSupp, maxSupp := checkBoxes(t, tc.name, d, tc.primary)
		if tc.primary < 1e-6 && (minSupp != 1 || maxSupp != tc.m) {
			t.Errorf("%s: CFI supports span [%d,%d], want [1,%d]", tc.name, minSupp, maxSupp, tc.m)
		}
	}
}

// FuzzBoxProbe builds an index over a fuzzed clustered dataset —
// 1 to 4 attributes of 1 to 6 values, some never held, and up to
// 2^17 records, so past a container boundary — at a fuzzed primary
// support from one record up to all of them, and holds every box to
// the tidset walk and the record scan.
func FuzzBoxProbe(f *testing.F) {
	f.Add(int64(1), uint16(99), uint8(0))
	f.Add(int64(2), uint16(4463), uint8(1))
	f.Add(int64(3), uint16(0), uint8(6))
	f.Add(int64(4), uint16(63), uint8(0x1c))
	f.Add(int64(5), uint16(65535), uint8(0x33))
	f.Fuzz(func(t *testing.T, seed int64, records uint16, shape uint8) {
		m := 1 + int(records) + int(shape&1)*(1<<16)
		rng := rand.New(rand.NewSource(seed))
		cards, extra := make([]int, 1+int(shape>>1)%4), make([]int, 0, 4)
		for a := range cards {
			cards[a] = 1 + rng.Intn(6)
			extra = append(extra, rng.Intn(3)/2)
		}
		primary := []float64{1e-9, 0.05, 0.3, 1}[int(shape>>3)%4]
		checkBoxes(t, fmt.Sprintf("m=%d cards=%v primary=%g", m, cards, primary), clusteredDataset(rng, m, cards, extra), primary)
	})
}

// BenchmarkBoxes is the box probes of an index build alone, serial,
// over the benchmark workloads' three fixtures at their primaries:
// every CFI's box from its supporters, the AND of its items' vectors in
// the arena CHARM mines, formed in one scratch vector.
func BenchmarkBoxes(b *testing.B) {
	for _, fx := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
	}{
		{"chess@0.70", datagen.ChessConfig(1), 0.70},
		{"mushroom@0.05", datagen.MushroomConfig(1), 0.05},
		{"pumsb0.15@0.92", datagen.Scaled(datagen.PUMSBConfig(1), 0.15), 0.92},
	} {
		b.Run(fx.name, func(b *testing.B) {
			d, err := datagen.Generate(fx.cfg)
			if err != nil {
				b.Fatal(err)
			}
			idx, err := Build(d, Options{PrimarySupport: fx.primary})
			if err != nil {
				b.Fatal(err)
			}
			items, vecs, err := charm.Frequent(idx.Tidsets, d.NumRecords(), idx.PrimaryCount)
			if err != nil {
				b.Fatal(err)
			}
			p := &Probe{items: items, vecs: vecs, scratch: make([]uint64, len(vecs[0]))}
			lo, hi := make([]int32, d.NumAttrs()), make([]int32, d.NumAttrs())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for id := 0; id < idx.NumMIPs(); id++ {
					p.Items, p.vec = idx.ITTree.Items(id), nil
					BoundingBox(idx.Space, idx.Cards, idx.Tidsets, p.Items, p.Supporters(), lo, hi)
				}
			}
		})
	}
}

// TestSparseBoxesMatchBoundingBox expands every R-tree entry of the
// benchmark workloads' three indexes back to its dense box and holds it
// to the one BoundingBox probes afresh from the CFI's supporters, and
// holds the sparse records to the closure: an entry stores nothing on
// its itemset's attributes, so its box is a point on exactly those.
func TestSparseBoxesMatchBoundingBox(t *testing.T) {
	for _, fx := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
	}{
		{"chess@0.70", datagen.ChessConfig(1), 0.70},
		{"mushroom@0.05", datagen.MushroomConfig(1), 0.05},
		{"pumsb0.15@0.92", datagen.Scaled(datagen.PUMSBConfig(1), 0.15), 0.92},
	} {
		d, err := datagen.Generate(fx.cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := Build(d, Options{PrimarySupport: fx.primary})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.RTree.Validate(); err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		items, vecs, err := charm.Frequent(idx.Tidsets, d.NumRecords(), idx.PrimaryCount)
		if err != nil {
			t.Fatal(err)
		}
		p := &Probe{items: items, vecs: vecs, scratch: make([]uint64, len(vecs[0]))}
		got, want := itemset.NewBox(d.NumAttrs()), itemset.NewBox(d.NumAttrs())
		fixed := make([]bool, d.NumAttrs())
		for id := 0; id < idx.NumMIPs(); id++ {
			p.Items, p.vec = idx.ITTree.Items(id), nil
			BoundingBox(idx.Space, idx.Cards, idx.Tidsets, p.Items, p.Supporters(), want.Lo, want.Hi)
			idx.RTree.Expand(id, got.Lo, got.Hi)
			if !sameBox(got, want) {
				t.Fatalf("%s: CFI %d %v expands to %v, BoundingBox gives %v", fx.name, id, p.Items, got, want)
			}
			clear(fixed)
			for _, it := range p.Items {
				fixed[idx.Space.AttrOf(it)] = true
			}
			for a, f := range fixed {
				if f != (got.Lo[a] == got.Hi[a]) {
					t.Fatalf("%s: CFI %d %v has box %v: a point off its itemset, or none on it, on attribute %d", fx.name, id, p.Items, got, a)
				}
			}
		}
	}
}

// TestBoxBytesPinned pins the resident size of the R-tree's entry store
// on quarter-scale chess @ 0.70, beside TestCFITidsetBytesPinned: the
// sparse box records, their offsets and the id → slot map of all 8507
// CFIs. Every chess box spans the whole domain off its itemset, so each
// record is its two item mask values: 16 bytes a CFI with the record's
// offset and slot. The dense entry slab this store replaced held 2 × 37
// bounds a box, 2 518 072 bytes, beside a slot map of 34 028.
func TestBoxBytesPinned(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d, Options{PrimarySupport: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	const wantCFIs, wantBytes = 8507, 136116
	if cfis, got := idx.NumMIPs(), idx.RTree.EntryBytes(); cfis != wantCFIs || got != wantBytes {
		t.Errorf("%d CFIs holding %d entry store bytes, want %d CFIs and %d bytes", cfis, got, wantCFIs, wantBytes)
	}
}
