package charm

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
)

// correlatedItems draws k item id lists over [0, width): each item is
// fresh random ids at its own density, or a copy, a subset or a superset
// of an earlier item, so CHARM meets all four tidset properties. Item
// skip is left nil.
func correlatedItems(r *rand.Rand, width, k, skip int) [][]int {
	items := make([][]int, k)
	for it := range items {
		if it == skip {
			continue
		}
		var prev []int
		if it > 0 && items[it-1] != nil {
			prev = items[it-1]
		}
		var ids []int
		switch mode := r.Intn(5); {
		case mode == 1 && prev != nil: // identical tidsets
			ids = slices.Clone(prev)
		case mode == 2 && prev != nil: // a subset
			for _, id := range prev {
				if r.Intn(4) > 0 {
					ids = append(ids, id)
				}
			}
		case mode == 3 && prev != nil: // a superset
			p := r.Float64() / 2
			for id, j := 0, 0; id < width; id++ {
				in := j < len(prev) && prev[j] == id
				if in {
					j++
				}
				if in || r.Float64() < p {
					ids = append(ids, id)
				}
			}
		default: // fresh, clustered in runs like records sharing a value
			p := r.Float64()
			for id := 0; id < width; {
				run := 1 + r.Intn(64)
				in := r.Float64() < p
				for ; run > 0 && id < width; run, id = run-1, id+1 {
					if in {
						ids = append(ids, id)
					}
				}
			}
		}
		items[it] = ids
	}
	return items
}

// vectorOf lays ids out as a vector of ⌈width/64⌉ words.
func vectorOf(width int, ids []int) []uint64 {
	v := make([]uint64, (width+63)/64)
	for _, id := range ids {
		v[id/64] |= 1 << (id % 64)
	}
	return v
}

// checkAgainstBrute holds a mining result to BruteForceClosed over the
// same tidsets: the same CFIs in the same order, with the same supports.
func checkAgainstBrute(t *testing.T, label string, got *Result, sets []*bitset.Set, n, minCount int) []*ClosedSet {
	t.Helper()
	want := BruteForceClosed(sets, n, minCount)
	if len(got.Closed) != len(want) {
		t.Fatalf("%s: %d CFIs, brute force %d", label, len(got.Closed), len(want))
	}
	for i, c := range got.Closed {
		if !c.Items.Equal(want[i].Items) || c.Support != want[i].Support {
			t.Fatalf("%s: CFI %d is %v with support %d, brute force %v with %d",
				label, i, c.Items, c.Support, want[i].Items, want[i].Support)
		}
	}
	return want
}

// vecWidths are the vector widths FuzzMineVectors draws from: one bit,
// and one bit short of, at and past one and two words, so the tail word
// is partial, full and a single bit.
var vecWidths = []int{1, 63, 64, 65, 127, 128, 129}

// FuzzMineVectors holds vector CHARM to the brute-force reference on
// correlated items of every width in vecWidths, one of them often left
// out: MineVectors returns the brute-force CFIs and supports with no
// tidsets and leaves its input vectors as they were, and MineTidsets
// over the same items as record-space tidsets (nil for the one left out)
// returns them too, each with the brute-force tidset.
func FuzzMineVectors(f *testing.F) {
	f.Add(uint8(0), uint8(3), int64(1), uint16(1))
	f.Add(uint8(3), uint8(6), int64(7), uint16(9))
	f.Add(uint8(6), uint8(7), int64(42), uint16(30))
	f.Add(uint8(2), uint8(5), int64(3), uint16(2))
	f.Fuzz(func(t *testing.T, widthSel, nItems uint8, seed int64, minSel uint16) {
		width := vecWidths[int(widthSel)%len(vecWidths)]
		k := 1 + int(nItems)%8
		r := rand.New(rand.NewSource(seed))
		ids := correlatedItems(r, width, k, r.Intn(k+1))
		sets := make([]*bitset.Set, k)
		var items []itemset.Item
		var words []uint64
		for it, l := range ids {
			if l != nil {
				sets[it] = bitset.FromIDs(width, l...)
				items = append(items, itemset.Item(it))
				words = append(words, vectorOf(width, l)...)
			}
		}
		before := slices.Clone(words)
		minCount := 1 + int(minSel)%width

		got, err := MineVectors(context.Background(), items, words, width, minCount)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, "MineVectors", got, sets, width, minCount)
		for _, c := range got.Closed {
			if c.Tids != nil {
				t.Fatalf("MineVectors materialized a tidset for %v", c.Items)
			}
		}
		if !slices.Equal(words, before) {
			t.Fatal("mining changed the input vectors")
		}

		rec, err := MineTidsets(sets, width, minCount)
		if err != nil {
			t.Fatal(err)
		}
		want := checkAgainstBrute(t, "MineTidsets", rec, sets, width, minCount)
		for i, c := range rec.Closed {
			if !c.Tids.Equal(want[i].Tids) {
				t.Fatalf("MineTidsets: %v has tidset %v, brute force %v", c.Items, c.Tids, want[i].Tids)
			}
		}
	})
}

// TestMineTidsetsMultiContainer holds record-space CHARM to the brute
// force on a universe of 2^17+77 records — two full containers and a
// partial third, so item words are copied per container and tidsets are
// materialized across containers: every CFI's tidset equals the brute-
// force one, and one the miner built is in Optimize's encoding.
func TestMineTidsetsMultiContainer(t *testing.T) {
	const n = 1<<17 + 77
	built := 0
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ids := correlatedItems(r, n, 7, -1)
		sets := make([]*bitset.Set, len(ids))
		input := map[*bitset.Set]bool{}
		for it, l := range ids {
			sets[it] = bitset.FromIDs(n, l...)
			input[sets[it]] = true
		}
		for _, minCount := range []int{1, n / 8, n / 3} {
			res, err := MineTidsets(sets, n, minCount)
			if err != nil {
				t.Fatal(err)
			}
			want := checkAgainstBrute(t, "multi-container", res, sets, n, minCount)
			for i, c := range res.Closed {
				if !c.Tids.Equal(want[i].Tids) || c.Tids.Len() != n {
					t.Fatalf("seed %d minCount %d: %v has the wrong tidset", seed, minCount, c.Items)
				}
				if input[c.Tids] {
					continue
				}
				built++
				canon := c.Tids.Clone()
				canon.Optimize()
				if c.Tids.Bytes() != canon.Bytes() {
					t.Fatalf("seed %d minCount %d: %v's tidset takes %d bytes, Optimize's encoding %d",
						seed, minCount, c.Items, c.Tids.Bytes(), canon.Bytes())
				}
			}
		}
	}
	if built == 0 {
		t.Error("every CFI holds an input tidset: nothing was materialized")
	}
}

// TestMineVectorsRejectsRaggedWords: the words split evenly into one
// vector per item.
func TestMineVectorsRejectsRaggedWords(t *testing.T) {
	if _, err := MineVectors(context.Background(), []itemset.Item{0, 2}, []uint64{1, 1, 0}, 64, 1); err == nil {
		t.Error("3 words for 2 vectors must be refused")
	}
}
