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

// TestMineRecordSpaceReadsInputsOnly: Frequent copies the caller's
// tidsets into the arena the miner reads, so mining must leave every
// one bit-identical — content and container encoding — and every CFI's
// support is the count of its items' common records.
func TestMineRecordSpaceReadsInputsOnly(t *testing.T) {
	tids, n, minCount := mushroom(t)
	before := make([]*bitset.Set, len(tids))
	for i, s := range tids {
		before[i] = s.Clone()
	}
	res, err := mineRecords(tids, n, minCount)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tids {
		if !reflect.DeepEqual(before[i], s) {
			t.Errorf("item %d: mining changed the input tidset", i)
		}
	}
	for _, c := range closedOf(res) {
		if want := intersection(tids, c.Items, n).Count(); c.Support != want {
			t.Fatalf("%v: support %d, its items share %d records", c.Items, c.Support, want)
		}
	}
}

// TestMineAllocsPerCFI bounds what mining allocates per emitted CFI on
// mushroom @ 0.30. An emitted CFI costs its node and its itemset unions,
// and no object of its own; a sibling pair that opens no branch costs
// nothing (measured 4.7; 7.5 when each CFI also materialized its
// tidset, 8.5 with a *ClosedSet per CFI besides, 29.7 when every pair
// also materialized its intersection first).
func TestMineAllocsPerCFI(t *testing.T) {
	tids, n, minCount := mushroom(t)
	res, err := mineRecords(tids, n, minCount)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := mineRecords(tids, n, minCount); err != nil {
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
		res, err := mineRecords(tids, n, minCount)
		if err != nil {
			b.Fatal(err)
		}
		mined = res
	}
	b.ReportMetric(float64(mined.Len()), "CFIs")
}

var mined *Result

// BenchmarkMineRecordSpace is the CHARM kernel on the record-space mines
// the served benchmark runs: chess @ 0.70 (every tidset a bitmap, the
// index build of mine_mip), mushroom @ 0.30 (the shape of ingest_notify's
// merged-view re-mine) and mushroom @ 0.05 (the index build of mine_mip
// and mine_hot) — plus full-scale PUMSB, 49 k records, whose vectors are
// 766 words (6 KB) each: the memory cost of mining in record space.
func BenchmarkMineRecordSpace(b *testing.B) {
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
