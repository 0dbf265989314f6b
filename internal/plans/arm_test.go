package plans

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/rules"
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

// freshFocal returns a copy of f with an empty vertical layout, as
// Executor.Focus returns it.
func freshFocal(f *Focal) *Focal {
	return &Focal{Surface: f.Surface, DQ: f.DQ, Size: f.Size, MinCount: f.MinCount}
}

// sampleVectors grows f's layout the way the optimizer's MIP sample does
// (cost.Model's probe, which this package cannot import): every
// ⌊n/128⌋-th stored CFI whose global support reaches MinCount is asked
// whether it reaches MinCount inside D^Q.
func sampleVectors(f *Focal) {
	tree := f.Surface.Tree
	step := max(1, tree.Size()/128)
	for id := 0; id < tree.Size(); id += step {
		if tree.Support(id) >= f.MinCount {
			f.Reaches(tree.Items(id))
		}
	}
}

// armRun is ARM's SELECT and εAR over f: the items SELECT kept and the
// Result over them.
func armRun(t *testing.T, ex *Executor, f *Focal, q *Query) ([]itemset.Item, *Result) {
	t.Helper()
	items, _, err := ex.newCtx(context.Background(), f, q).selectItems()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.newCtx(context.Background(), f, q).mineLocal(items)
	if err != nil {
		t.Fatal(err)
	}
	return items, res
}

// checkSelect holds ARM's SELECT over a fresh copy of f and q to the row
// scan: every kept item's vector equals RankAnd of the row-scan tidset,
// no item outside the item attributes is kept, every other item's
// row-scan count is below MinCount, and εAR returns the same Result —
// rules and Stats — over the kept items as over vectors of every
// item-attribute item built from the row scan. SELECT over a copy whose
// optimizer sample built vectors first keeps the same items and returns
// the same Result. It returns how many items were kept and pruned.
func checkSelect(t *testing.T, ex *Executor, f *Focal, q *Query, label string) (kept, pruned int) {
	t.Helper()
	fresh := freshFocal(f)
	got, gotRes := armRun(t, ex, fresh, q)
	wantTids := rowScanTids(ex.newCtx(context.Background(), fresh, q))
	isKept := make([]bool, len(wantTids))
	for _, it := range got {
		isKept[it] = true
	}
	var all []itemset.Item
	for it, w := range wantTids {
		if w != nil {
			all = append(all, itemset.Item(it))
		}
		switch {
		case w == nil && isKept[it]:
			t.Fatalf("%s: item %d is no item-attribute item, yet SELECT kept it", label, it)
		case isKept[it]:
			kept++
			want := make([]uint64, fresh.vecs.nw)
			bitset.RankAnd(want, f.DQ, w)
			if g := fresh.vecs.view(itemset.Item(it)); !slices.Equal(g, want) {
				t.Fatalf("%s: item %d: vector %x, RankAnd of the row scan %x", label, it, g, want)
			}
		case w != nil:
			pruned++
			if n := w.Count(); n >= f.MinCount {
				t.Fatalf("%s: item %d pruned with %d local records, MinCount %d", label, it, n, f.MinCount)
			}
		}
	}

	scan := *f.Surface
	scan.Tidsets = wantTids
	ref := &Focal{Surface: &scan, DQ: f.DQ, Size: f.Size, MinCount: f.MinCount}
	for _, it := range all {
		ref.vector(it)
	}
	wantRes, err := ex.newCtx(context.Background(), ref, q).mineLocal(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("%s: εAR over the pruned vectors diverges from the row scan:\n%+v\n%+v", label, gotRes.Stats, wantRes.Stats)
	}

	sampled := freshFocal(f)
	sampleVectors(sampled)
	again, againRes := armRun(t, ex, sampled, q)
	if !slices.Equal(again, got) || !reflect.DeepEqual(againRes, gotRes) {
		t.Fatalf("%s: after the optimizer's sample SELECT kept %v (fresh: %v), stats\n%+v\nfresh\n%+v",
			label, again, got, againRes.Stats, gotRes.Stats)
	}
	return kept, pruned
}

// TestARMSelectMatchesRowScan holds ARM's vertical SELECT to the row
// scan (checkSelect) over a frozen index and a merged surface after
// inserts and deletes.
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
				k, p := checkSelect(t, ex, f, q, fmt.Sprintf("seed %d query %d %s", seed, i, s.name))
				kept += k
				pruned += p
			}
		}
	}
	if kept == 0 || pruned == 0 {
		t.Errorf("kept %d and pruned %d items: the queries no longer exercise both sides of SELECT", kept, pruned)
	}
}

// TestARMSelectWordBoundaries runs checkSelect over focal subsets whose
// size sits at and around a vector word boundary — the last word full,
// one bit into a new word, one bit short — on a 406-record mushroom,
// with and without an item-attribute mask.
func TestARMSelectWordBoundaries(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.MushroomConfig(1), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s, n := NewSurface(idx), d.NumRecords()
	ex := NewExecutor(idx.Space)
	r := rand.New(rand.NewSource(41))
	for _, size := range []int{1, 63, 64, 65, 127, 128, 129, 191, 192, 193} {
		ids := r.Perm(n)[:size]
		f := &Focal{Surface: s, DQ: bitset.FromIDs(n, ids...), Size: size}
		for _, minSupp := range []float64{0.6, 0.9} {
			f.MinCount = charm.CountFor(minSupp, size)
			mask := make([]bool, idx.Space.NumAttrs())
			for a := range mask {
				mask[a] = a%3 != 1
			}
			for _, m := range [][]bool{nil, mask} {
				q := &Query{Region: itemset.RegionFor(idx.Space), ItemAttrs: m, MinSupport: minSupp, MinConfidence: 0.8, MaxConsequent: 1}
				checkSelect(t, ex, f, q, fmt.Sprintf("|DQ|=%d minsupp=%g mask=%v", size, minSupp, m != nil))
			}
		}
	}
}

// TestARMOracleMissesHaveVectors: every itemset εAR's rule generation
// asks ARM's oracle about names only items SELECT kept, and every ask
// equals the count over D^Q and the surface's item tidsets; the plan
// reports no oracle miss. Rule generation asks only about subsets of
// mined CFIs, all locally frequent, so the locally infrequent itemsets
// that ARM's IT-tree once missed on are forced: every pair and triple of
// kept items below MinCount inside D^Q is asked directly and must equal
// its count too.
func TestARMOracleMissesHaveVectors(t *testing.T) {
	asked, uncovered := 0, 0
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
				items, res := armRun(t, ex, f, q)
				if res.Stats.OracleMisses != 0 {
					t.Fatalf("seed %d query %d %s: ARM reports %d oracle misses", seed, i, s.name, res.Stats.OracleMisses)
				}
				isKept := make([]bool, idx.Space.NumItems())
				for _, it := range items {
					isKept[it] = true
				}
				vecs := make([][]uint64, len(items))
				for k, it := range items {
					vecs[k] = f.vecs.view(it)
				}
				mined, err := charm.MineVectors(context.Background(), items, vecs, s.NumRecords, f.MinCount, nil)
				if err != nil {
					t.Fatal(err)
				}
				var tally counterTally
				oracle := armOracle(f, &tally)
				check := func(x itemset.Set) int {
					for _, it := range x {
						if !isKept[it] {
							t.Fatalf("seed %d query %d %s: oracle asked about %v, item %d has no vector", seed, i, s.name, x, it)
						}
					}
					got := oracle(x)
					if want := chainCount(f.DQ, s.Tidsets, x); got != want {
						t.Fatalf("seed %d query %d %s: oracle(%v) = %d, D^Q holds %d", seed, i, s.name, x, got, want)
					}
					asked++
					return got
				}
				for id := 0; id < mined.Len(); id++ {
					if len(mined.Items(id)) >= 2 {
						rules.Generate(nil, nil, mined.Items(id), mined.Support(id), f.Size, q.MinConfidence, check, rules.Options{MaxConsequent: q.MaxConsequent})
					}
				}
				for a := range items {
					for b := a + 1; b < len(items); b++ {
						if x := (itemset.Set{items[a], items[b]}); chainCount(f.DQ, s.Tidsets, x) < f.MinCount {
							check(x)
							uncovered++
						}
						for c := b + 1; c < len(items); c++ {
							if x := (itemset.Set{items[a], items[b], items[c]}); chainCount(f.DQ, s.Tidsets, x) < f.MinCount {
								check(x)
								uncovered++
							}
						}
					}
				}
			}
		}
	}
	if uncovered == 0 {
		t.Fatalf("%d itemsets asked, none below MinCount: the test no longer counts what the tree missed", asked)
	}
	t.Logf("%d itemsets asked, %d below MinCount", asked, uncovered)
}

// BenchmarkARMSelect times ARM's SELECT on chess over a focal subset of
// about half the records, on a fresh layout each time, against the row
// scan it replaced. SELECT reads
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
	setProcs(b, 1)
	ex := NewExecutor(idx.Space)
	f := ex.Focus(NewSurface(idx), q)
	c := ex.newCtx(context.Background(), f, q)
	b.Run("vertical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ex.newCtx(context.Background(), freshFocal(f), q).selectItems(); err != nil {
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

// BenchmarkARM times the forced ARM plan — SELECT, CHARM over the
// rank-space vectors, rule generation — serially, on a fresh layout each
// time, on the mine_auto shapes: chess and the reduced PUMSB at the
// middle minsupport of their grids (0.85, 0.97), over focal subsets of
// about 50, 10 and 1 % of the records. ARM reads only the item tidsets, so the indexes are built at
// a high primary to keep set-up short.
func BenchmarkARM(b *testing.B) {
	setProcs(b, 1)
	for _, ds := range []struct {
		name    string
		cfg     datagen.Config
		minSupp float64
	}{
		{"chess", datagen.ChessConfig(1), 0.85},
		{"pumsb", datagen.Scaled(datagen.PUMSBConfig(1), 0.15), 0.97},
	} {
		d, err := datagen.Generate(ds.cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.99})
		if err != nil {
			b.Fatal(err)
		}
		s := NewSurface(idx)
		for _, frac := range []float64{0.50, 0.10, 0.01} {
			q := &Query{Region: fracRegion(idx, frac), MinSupport: ds.minSupp, MinConfidence: 0.9, MaxConsequent: 1}
			ex := NewExecutor(idx.Space)
			f := ex.Focus(s, q)
			b.Run(fmt.Sprintf("%s/dq=%g%%", ds.name, 100*frac), func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for i := 0; i < b.N; i++ {
					if res, err = ex.RunContext(context.Background(), ARM, freshFocal(f), q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(f.Size)/float64(idx.Dataset.NumRecords()), "dq_frac")
				b.ReportMetric(float64(res.Stats.ARMFrequentItemsets), "CFIs")
				b.ReportMetric(float64(res.Stats.RulesEmitted), "rules")
			})
		}
	}
}
