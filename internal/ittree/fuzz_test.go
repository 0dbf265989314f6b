package ittree

import (
	"fmt"
	"math/rand"
	"testing"

	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

// oracleClosure is the brute-force reference for ClosureID: among ALL
// stored CFIs containing x, the one with maximum support. The maximum
// is unique — a containing CFI's tidset is a subset of tidset(x), so a
// containing CFI whose support reaches |tidset(x)| has tidset exactly
// tidset(x) and is the closure itself — so no tie-break is needed.
func oracleClosure(res *charm.Result, x itemset.Set) (int, bool) {
	best := -1
	for id := 0; id < res.Len(); id++ {
		if !x.SubsetOf(res.Items(id)) {
			continue
		}
		if best < 0 || res.Support(id) > res.Support(best) {
			best = id
		}
	}
	return best, best >= 0
}

// FuzzClosure drives random datasets through the tree and checks
// ClosureID and LookupID against the brute-force
// smallest-containing-CFI oracle — the closure scan's (support desc, id
// asc) early exit has to find the oracle's maximum exactly, and its
// signature filter must never skip the closure. Item ids are spread by a
// fuzzed stride (item i becomes i·stride), so they pass 128 and, at an
// even stride, many share a signature bit: at stride 128 every item
// aliases bit 0 and the filter passes every CFI to containsAll.
func FuzzClosure(f *testing.F) {
	f.Add(int64(1), 12, 4, 3, 2, 1)
	f.Add(int64(42), 25, 5, 4, 1, 1)
	f.Add(int64(7), 6, 2, 2, 1, 1)
	f.Add(int64(20260808), 40, 3, 3, 3, 1)
	f.Add(int64(3), 30, 5, 4, 1, 7)
	f.Add(int64(11), 35, 5, 4, 2, 64)
	f.Add(int64(5), 40, 4, 4, 1, 128)
	f.Add(int64(9), 28, 5, 3, 1, 43)
	f.Fuzz(func(t *testing.T, seed int64, rows, attrs, card, minCount, stride int) {
		rows = 1 + abs(rows)%40
		attrs = 1 + abs(attrs)%5
		card = 2 + abs(card)%3
		minCount = 1 + abs(minCount)%3
		stride = 1 + abs(stride)%130
		rng := rand.New(rand.NewSource(seed))

		names := make([]string, attrs)
		for a := range names {
			names[a] = fmt.Sprintf("A%d", a)
		}
		b := relation.NewBuilder("fuzz", names...)
		row := make([]string, attrs)
		for r := 0; r < rows; r++ {
			for a := 0; a < attrs; a++ {
				row[a] = fmt.Sprintf("v%d", rng.Intn(card))
			}
			if err := b.AddRecord(row...); err != nil {
				t.Fatal(err)
			}
		}
		d := b.Build()
		sp := itemset.NewSpace(d)
		res, err := charm.Mine(d, sp, minCount)
		if err != nil {
			t.Fatal(err)
		}
		// Multiplying by a positive stride keeps every itemset sorted.
		for id := 0; id < res.Len(); id++ {
			items := res.Items(id)
			for i := range items {
				items[i] *= itemset.Item(stride)
			}
		}
		numItems := (sp.NumItems()-1)*stride + 1
		tr := Build(res, nil, numItems)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}

		// Probe sets: every stored CFI (identity), random subsets of
		// stored CFIs, and random item combinations (often absent).
		var probes []itemset.Set
		for id := 0; id < res.Len(); id++ {
			items := res.Items(id)
			probes = append(probes, items)
			if len(items) > 1 {
				sub := append(itemset.Set(nil), items...)
				rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
				sub = sub[:1+rng.Intn(len(sub))]
				probes = append(probes, itemset.NewSet(sub...))
			}
		}
		for i := 0; i < 16; i++ {
			n := 1 + rng.Intn(3)
			raw := make([]itemset.Item, n)
			for j := range raw {
				raw[j] = itemset.Item(rng.Intn(sp.NumItems()) * stride)
			}
			probes = append(probes, itemset.NewSet(raw...))
		}

		for _, x := range probes {
			wantID, wantOK := oracleClosure(res, x)
			gotID, gotOK := tr.ClosureID(x)
			if gotOK != wantOK || (wantOK && gotID != wantID) {
				t.Fatalf("ClosureID(%v) = (%d,%v), oracle (%d,%v)", x, gotID, gotOK, wantID, wantOK)
			}
			// Exact lookup agrees with a linear scan.
			exact := -1
			for id := 0; id < res.Len(); id++ {
				if res.Items(id).Equal(x) {
					exact = id
					break
				}
			}
			lid, lok := tr.LookupID(x)
			if lok != (exact >= 0) || (lok && lid != exact) {
				t.Fatalf("LookupID(%v) = (%d,%v), scan %d", x, lid, lok, exact)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
