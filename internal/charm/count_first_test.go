package charm

import (
	"reflect"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
)

// generated returns the per-item tidsets of a datagen preset.
func generated(tb testing.TB, cfg datagen.Config) ([]*bitset.Set, int) {
	tb.Helper()
	d, err := datagen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return itemset.ItemTidsets(d, itemset.NewSpace(d)), d.NumRecords()
}

func mushroom(tb testing.TB) ([]*bitset.Set, int, int) {
	tids, n := generated(tb, datagen.MushroomConfig(1))
	return tids, n, CountFor(0.30, n)
}

func chess(tb testing.TB) ([]*bitset.Set, int, int) {
	tids, n := generated(tb, datagen.ChessConfig(1))
	return tids, n, CountFor(0.70, n)
}

// TestMineTidsetsReadsInputsOnly: the miner works on the caller's
// tidsets without copying them, so it must leave every one bit-identical
// — content and container encoding.
func TestMineTidsetsReadsInputsOnly(t *testing.T) {
	tids, n, minCount := mushroom(t)
	before := make([]*bitset.Set, len(tids))
	for i, s := range tids {
		before[i] = s.Clone()
	}
	if _, err := MineTidsets(tids, n, minCount); err != nil {
		t.Fatal(err)
	}
	for i, s := range tids {
		if !reflect.DeepEqual(before[i], s) {
			t.Errorf("item %d: mining changed the input tidset", i)
		}
	}
}

// TestClosedTidsAliasing pins the ownership contract of Result.Tids:
// a CFI whose tidset is an input item's tidset holds that very set
// (nothing is cloned), no two CFIs share a set, and — because an emitted
// set never returns to the miner's free list — every tidset still is the
// intersection of its items' tidsets when mining ends.
func TestClosedTidsAliasing(t *testing.T) {
	tids, n, minCount := mushroom(t)
	res, err := MineTidsets(tids, n, minCount)
	if err != nil {
		t.Fatal(err)
	}
	input := map[*bitset.Set]bool{}
	for _, s := range tids {
		input[s] = true
	}
	aliased := 0
	seen := map[*bitset.Set]bool{}
	for _, c := range closedOf(res) {
		if seen[c.Tids] {
			t.Fatalf("%v shares its tidset with another CFI", c.Items)
		}
		seen[c.Tids] = true
		if input[c.Tids] {
			aliased++
		}
		want := bitset.New(n)
		want.Fill()
		for _, it := range c.Items {
			want.And(tids[it])
		}
		if !want.Equal(c.Tids) || c.Support != want.Count() {
			t.Fatalf("%v: tidset is not the intersection of its items' tidsets", c.Items)
		}
	}
	if aliased == 0 {
		t.Error("no CFI holds an input tidset: the roots are being copied again")
	}
}

// TestMineAllocsPerCFI bounds what mining allocates per emitted CFI on
// mushroom @ 0.30. An emitted CFI costs its node, its itemset unions
// and one materialized tidset (set, container slice, payload), and no
// object of its own; a sibling pair that opens no branch costs nothing
// (measured 7.5; 8.5 with a *ClosedSet per CFI, 29.7 when every pair
// also materialized its intersection first).
func TestMineAllocsPerCFI(t *testing.T) {
	tids, n, minCount := mushroom(t)
	res, err := MineTidsets(tids, n, minCount)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := MineTidsets(tids, n, minCount); err != nil {
			t.Fatal(err)
		}
	})
	perCFI := allocs / float64(res.Len())
	t.Logf("%d CFIs, %.0f allocations, %.1f per CFI", res.Len(), allocs, perCFI)
	if perCFI > 16 {
		t.Errorf("%.1f allocations per mined CFI, want <= 16", perCFI)
	}
}

func benchmarkMine(b *testing.B, tids []*bitset.Set, n, minCount int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := MineTidsets(tids, n, minCount)
		if err != nil {
			b.Fatal(err)
		}
		mined = res
	}
	b.ReportMetric(float64(mined.Len()), "CFIs")
}

var mined *Result

// BenchmarkMineTidsets is the CHARM kernel on the record-space mines
// the served benchmark runs: chess @ 0.70 (every tidset a bitmap, the
// index build of mine_mip), mushroom @ 0.30 (the shape of ingest_notify's
// merged-view re-mine, which runs the same miner through MineVectors and
// materializes no CFI tidset) and mushroom @ 0.05 (the index build of mine_mip and
// mine_hot) — plus full-scale PUMSB, 49 k records, whose vectors are
// 766 words (6 KB) each: the memory cost of mining in record space.
func BenchmarkMineTidsets(b *testing.B) {
	b.Run("chess@0.70", func(b *testing.B) {
		tids, n, minCount := chess(b)
		benchmarkMine(b, tids, n, minCount)
	})
	b.Run("mushroom@0.30", func(b *testing.B) {
		tids, n, minCount := mushroom(b)
		benchmarkMine(b, tids, n, minCount)
	})
	b.Run("mushroom@0.05", func(b *testing.B) {
		tids, n := generated(b, datagen.MushroomConfig(1))
		benchmarkMine(b, tids, n, CountFor(0.05, n))
	})
	b.Run("pumsb@0.95", func(b *testing.B) {
		tids, n := generated(b, datagen.PUMSBConfig(1))
		benchmarkMine(b, tids, n, CountFor(0.95, n))
	})
}
