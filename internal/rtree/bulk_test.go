package rtree_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/rtree"
)

// cfiEntries returns the R-tree entries of a generated dataset's
// MIP-index at primary support p: the boxes a view build packs.
func cfiEntries(tb testing.TB, cfg datagen.Config, p float64) ([]rtree.Entry, int) {
	tb.Helper()
	d, err := datagen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := mip.Build(d, mip.Options{PrimarySupport: p})
	if err != nil {
		tb.Fatal(err)
	}
	es := make([]rtree.Entry, idx.NumMIPs())
	for id := range es {
		es[id] = rtree.Entry{Box: idx.RTree.Box(id), ID: int32(id), Support: int32(idx.ITTree.Support(id))}
	}
	return es, d.NumAttrs()
}

// tiedEntries draws n boxes over tiny domains, so most centers tie and
// the ID breaks the order; the entries arrive shuffled.
func tiedEntries(r *rand.Rand, n, dims int) []rtree.Entry {
	es := make([]rtree.Entry, n)
	for i := range es {
		b := itemset.NewBox(dims)
		for d := 0; d < dims; d++ {
			lo := r.Intn(3)
			b.Lo[d], b.Hi[d] = int32(lo), int32(lo+r.Intn(3))
		}
		es[i] = rtree.Entry{Box: b, ID: int32(i), Support: int32(1 + r.Intn(50))}
	}
	r.Shuffle(n, func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// inIDOrder returns a copy of the entries in ID order, the order the
// ids of Bulk's input take.
func inIDOrder(es []rtree.Entry) []rtree.Entry {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b rtree.Entry) int { return int(a.ID - b.ID) })
	return es
}

// TestBulkMatchesSortSliceSTR holds Bulk's packed-key sort to the
// sort.Slice STR it replaced: the same slabs, node for node, on the
// mushroom @ 0.30 and chess @ 0.70 MIP boxes and on random boxes with
// tied centers, at several fanouts. The entry slab is the only box
// store, so Box(id) is the box id was packed with and the box Search
// emits for it.
func TestBulkMatchesSortSliceSTR(t *testing.T) {
	type set struct {
		name string
		es   []rtree.Entry
		dims int
	}
	mush, md := cfiEntries(t, datagen.MushroomConfig(1), 0.30)
	chess, cd := cfiEntries(t, datagen.ChessConfig(1), 0.70)
	sets := []set{{"mushroom@0.30", mush, md}, {"chess@0.70", chess, cd}}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		dims, n := 1+r.Intn(5), r.Intn(700)
		sets = append(sets, set{fmt.Sprintf("tied/%d", i), tiedEntries(r, n, dims), dims})
	}
	for _, s := range sets {
		byID := make([]itemset.Box, len(s.es))
		cards := make([]int, s.dims)
		for _, e := range s.es {
			byID[e.ID] = e.Box
			for d, hi := range e.Box.Hi {
				cards[d] = max(cards[d], int(hi)+1)
			}
		}
		for _, fanout := range []int{2, 4, 7, 16} {
			got, err := rtree.BulkEntries(s.es, s.dims, fanout)
			if err != nil {
				t.Fatal(err)
			}
			want := rtree.SortSliceBulk(inIDOrder(s.es), s.dims, fanout)
			if err := rtree.SameSlabs(got, want); err != nil {
				t.Fatalf("%s fanout %d (%d entries): %v", s.name, fanout, len(s.es), err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s fanout %d: %v", s.name, fanout, err)
			}
			for id, want := range byID {
				if b := got.Box(id); !slices.Equal(b.Lo, want.Lo) || !slices.Equal(b.Hi, want.Hi) {
					t.Fatalf("%s fanout %d: Box(%d) = %v, packed %v", s.name, fanout, id, b, want)
				}
			}
			emitted := 0
			got.Search(itemset.NewRegion(cards), func(e rtree.Entry, _ itemset.Rel) bool {
				emitted++
				if b := got.Box(int(e.ID)); !slices.Equal(b.Lo, e.Box.Lo) || !slices.Equal(b.Hi, e.Box.Hi) {
					t.Fatalf("%s fanout %d: Box(%d) = %v, Search emits %v", s.name, fanout, e.ID, b, e.Box)
				}
				return true
			})
			if emitted != len(s.es) {
				t.Fatalf("%s fanout %d: Search over the full domain emitted %d of %d entries", s.name, fanout, emitted, len(s.es))
			}
		}
	}
}

// TestBulkSlabsExact: Bulk allocates every slab at its final length,
// so a packed tree holds no spare capacity — with one leaf, at full
// levels and one entry past them, at several fanouts.
func TestBulkSlabsExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, f := range []int{2, 3, 4, 16} {
		for _, n := range []int{0, 1, f - 1, f, f + 1, f * f, f*f + 1, f * f * f, 100, 1000} {
			tree, err := rtree.BulkEntries(tiedEntries(r, n, 3), 3, f)
			if err != nil {
				t.Fatal(err)
			}
			if err := rtree.SlabSlack(tree); err != nil {
				t.Errorf("fanout %d, %d entries: %v", f, n, err)
			}
		}
	}
}

// BenchmarkBulk packs the MIP boxes a merged-view build packs: mushroom
// @ 0.30 (the ingest_notify fixture) and chess @ 0.70, at the default
// fanout.
func BenchmarkBulk(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  datagen.Config
		p    float64
	}{
		{"mushroom@0.30", datagen.MushroomConfig(1), 0.30},
		{"chess@0.70", datagen.ChessConfig(1), 0.70},
	} {
		es, dims := cfiEntries(b, c.cfg, c.p)
		boxes, sups := rtree.EntrySlabs(es, dims)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rtree.Bulk(boxes, sups, dims, rtree.DefaultFanout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
