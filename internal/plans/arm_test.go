package plans

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/datagen"
	"colarm/internal/mip"
)

// rowScanTids is ARM's SELECT built row by row, the way it was before it
// read the surface's item tidsets: one Value lookup and one Add per
// record of D^Q and item attribute. It keeps every item of the item
// attributes, frequent or not, and is the oracle selectItems is held to.
func rowScanTids(c *qctx) []*bitset.Set {
	sp := c.ex.Space
	mask := c.q.itemMask(sp.NumAttrs())
	tids := make([]*bitset.Set, sp.NumItems())
	for a := 0; a < sp.NumAttrs(); a++ {
		if mask[a] {
			for v := 0; v < sp.Cardinality(a); v++ {
				tids[sp.ItemOf(a, v)] = bitset.New(c.s.NumRecords)
			}
		}
	}
	c.f.DQ.ForEach(func(r int) bool {
		for a := 0; a < sp.NumAttrs(); a++ {
			if mask[a] {
				tids[sp.ItemOf(a, c.s.Value(r, a))].Add(r)
			}
		}
		return true
	})
	return tids
}

// TestARMSelectMatchesRowScan holds ARM's vertical SELECT to the row
// scan over a frozen index and a merged surface after inserts and
// deletes: every kept local tidset equals the row-wise one, every pruned
// item's row-wise count is below MinCount, and εAR over the pruned
// tidsets returns the same Result — rules and Stats — as over the
// row-wise ones.
func TestARMSelectMatchesRowScan(t *testing.T) {
	kept, pruned := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(idx.Space)
		surfaces := []namedSurface{{"frozen", NewSurface(idx)}, {"merged", mergedSurface(t, r, idx, 0.1)}}
		for i := 0; i < 6; i++ {
			q := randomQuery(r, idx)
			for _, s := range surfaces {
				f := ex.Focus(s.Surface, q)
				if f.Size == 0 {
					continue
				}
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d query %d %s: "+format, append([]any{seed, i, s.name}, args...)...)
				}
				got, _, err := ex.newCtx(context.Background(), f, q).selectItems()
				if err != nil {
					t.Fatal(err)
				}
				want := rowScanTids(ex.newCtx(context.Background(), f, q))
				for it := range want {
					switch {
					case want[it] == nil && got[it] != nil:
						fail("item %d is no item-attribute item, yet SELECT built its tidset", it)
					case got[it] != nil:
						kept++
						if !got[it].Equal(want[it]) {
							fail("item %d: local tidset %v, row scan %v", it, got[it], want[it])
						}
					case want[it] != nil:
						pruned++
						if n := want[it].Count(); n >= f.MinCount {
							fail("item %d pruned with %d local records, MinCount %d", it, n, f.MinCount)
						}
					}
				}
				gotRes, err := ex.newCtx(context.Background(), f, q).mineLocal(got)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := ex.newCtx(context.Background(), f, q).mineLocal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					fail("εAR over the pruned tidsets diverges from the row scan:\n%+v\n%+v", gotRes.Stats, wantRes.Stats)
				}
			}
		}
	}
	if kept == 0 || pruned == 0 {
		t.Errorf("kept %d and pruned %d items: the queries no longer exercise both sides of SELECT", kept, pruned)
	}
}

// BenchmarkARMSelect times ARM's SELECT on chess over a focal subset of
// about half the records, against the row scan it replaced. SELECT reads
// only the item tidsets, so the index is built at a high primary to keep
// set-up short.
func BenchmarkARMSelect(b *testing.B) {
	d, err := datagen.Generate(datagen.ChessConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.95})
	if err != nil {
		b.Fatal(err)
	}
	q := &Query{Region: fracRegion(idx, 0.5), MinSupport: 0.60, MinConfidence: 0.8}
	ex := &Executor{Space: idx.Space, Workers: 1}
	f := ex.Focus(NewSurface(idx), q)
	c := ex.newCtx(context.Background(), f, q)
	b.Run("vertical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.selectItems(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(f.Size)/float64(idx.Dataset.NumRecords()), "dq_frac")
	})
	b.Run("rowscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rowScanTids(c)
		}
	})
}
