package charm

import (
	"context"
	"fmt"
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
func checkAgainstBrute(t *testing.T, label string, got *Result, sets []*bitset.Set, n, minCount int) {
	t.Helper()
	want := BruteForceClosed(sets, n, minCount)
	if got.Len() != len(want) {
		t.Fatalf("%s: %d CFIs, brute force %d", label, got.Len(), len(want))
	}
	for i, c := range closedOf(got) {
		if !c.Items.Equal(want[i].Items) || c.Support != want[i].Support {
			t.Fatalf("%s: CFI %d is %v with support %d, brute force %v with %d",
				label, i, c.Items, c.Support, want[i].Items, want[i].Support)
		}
	}
}

// vecWidths are the vector widths FuzzMineVectors draws from: one bit,
// and one bit short of, at and past one and two words, so the tail word
// is partial, full and a single bit.
var vecWidths = []int{1, 63, 64, 65, 127, 128, 129}

// FuzzMineVectors holds vector CHARM to the brute-force reference on
// correlated items of every width in vecWidths, one of them often left
// out: MineVectors, handed capped views of one arena as ARM hands it
// views of D^Q's layout, returns the brute-force CFIs and supports and
// leaves the arena as it was.
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
		nw := (width + 63) / 64
		vecs := make([][]uint64, len(items))
		for k := range vecs {
			vecs[k] = words[k*nw : (k+1)*nw : (k+1)*nw]
		}
		before := slices.Clone(words)
		minCount := 1 + int(minSel)%width

		got, err := MineVectors(context.Background(), items, vecs, width, minCount, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstBrute(t, "MineVectors", got, sets, width, minCount)
		if !slices.Equal(words, before) {
			t.Fatal("mining changed the input vectors")
		}
	})
}

// TestMineRecordSpaceMultiContainer holds record-space CHARM to the
// brute force on a universe of 2^17+77 records — two full containers
// and a partial third, so Frequent copies item words per container: the
// same CFIs with the same supports. The CFI tidsets the index stores
// are held across containers by mip's FuzzBoxProbe and
// TestBoxesMatchOracles.
func TestMineRecordSpaceMultiContainer(t *testing.T) {
	const n = 1<<17 + 77
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		ids := correlatedItems(r, n, 7, -1)
		sets := make([]*bitset.Set, len(ids))
		for it, l := range ids {
			sets[it] = bitset.FromIDs(n, l...)
		}
		for _, minCount := range []int{1, n / 8, n / 3} {
			res, err := mineRecords(sets, n, minCount)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstBrute(t, fmt.Sprintf("seed %d minCount %d", seed, minCount), res, sets, n, minCount)
		}
	}
}

// TestMineVectorsRejectsRaggedWords: every item has one vector, and the
// vectors have one length.
func TestMineVectorsRejectsRaggedWords(t *testing.T) {
	items := []itemset.Item{0, 2}
	if _, err := MineVectors(context.Background(), items, [][]uint64{{1}, {1, 0}}, 64, 1, nil); err == nil {
		t.Error("vectors of 1 and 2 words must be refused")
	}
	if _, err := MineVectors(context.Background(), items, [][]uint64{{1, 0}, {1}}, 64, 1, nil); err == nil {
		t.Error("vectors of 2 and 1 words must be refused")
	}
	if _, err := MineVectors(context.Background(), items, [][]uint64{{1}}, 64, 1, nil); err == nil {
		t.Error("one vector for two items must be refused")
	}
}

// TestMineVectorsReuse mines a run of random inputs of every width in
// vecWidths, widest first and then narrowest first, through one reused
// Result — so a run meets slabs carved at another width and a hash head
// table another run filled — and holds each to the brute force, as a
// fresh miner is held.
func TestMineVectorsReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	widths := append(slices.Clone(vecWidths), 1000)
	slices.Reverse(widths)
	widths = append(widths, vecWidths...)
	var reuse Result
	for run, width := range widths {
		k := 2 + r.Intn(7)
		ids := correlatedItems(r, width, k, -1)
		sets := make([]*bitset.Set, k)
		items := make([]itemset.Item, k)
		vecs := make([][]uint64, k)
		for it, l := range ids {
			sets[it] = bitset.FromIDs(width, l...)
			items[it] = itemset.Item(it)
			vecs[it] = vectorOf(width, l)
		}
		minCount := 1 + r.Intn(max(1, width/4))
		got, err := MineVectors(context.Background(), items, vecs, width, minCount, &reuse)
		if err != nil {
			t.Fatal(err)
		}
		if got != &reuse {
			t.Fatalf("run %d: MineVectors returned a new Result, not the reused one", run)
		}
		checkAgainstBrute(t, fmt.Sprintf("run %d (width %d)", run, width), got, sets, width, minCount)
	}
}
