package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/relation"
)

// edgyIndex builds an index over a random relation whose values crowd
// the middle of every domain, so the extreme values — the ones CFI
// bounding boxes end on — are held by few records and deleting those
// records moves boxes.
func edgyIndex(t *testing.T, rng *rand.Rand) *mip.Index {
	t.Helper()
	nAttrs := 3 + rng.Intn(3)
	names := make([]string, nAttrs)
	cards := make([]int, nAttrs)
	for a := range names {
		names[a] = string(rune('A' + a))
		cards[a] = 3 + rng.Intn(5)
	}
	b := relation.NewBuilder("edgy", names...)
	for a := range names {
		for v := 0; v < cards[a]; v++ {
			b.AddValue(a, names[a]+string(rune('0'+v)))
		}
	}
	m := 60 + rng.Intn(120)
	for r := 0; r < m; r++ {
		if err := b.AddRecordIdx(edgyRow(rng, cards)...); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// edgyRow draws one tuple: mostly the two middle values of each domain,
// sometimes anything.
func edgyRow(rng *rand.Rand, cards []int) []int {
	row := make([]int, len(cards))
	for a, card := range cards {
		if rng.Intn(4) > 0 {
			row[a] = card/2 - rng.Intn(2)
		} else {
			row[a] = rng.Intn(card)
		}
	}
	return row
}

// boundaryRecords returns every live base record that supports frozen
// CFI id and sits on the low (or high) bound of its box on an attribute
// the itemset does not constrain: deleting them all moves that bound.
func boundaryRecords(idx *mip.Index, id int, rng *rand.Rand) []int {
	sp := idx.Space
	fixed := make([]bool, sp.NumAttrs())
	for _, it := range idx.ITTree.Items(id) {
		fixed[sp.AttrOf(it)] = true
	}
	var free []int
	for a, f := range fixed {
		if !f {
			free = append(free, a)
		}
	}
	if len(free) == 0 {
		return nil
	}
	a := free[rng.Intn(len(free))]
	bound := idx.RTree.Box(id).Lo[a]
	if rng.Intn(2) == 0 {
		bound = idx.RTree.Box(id).Hi[a]
	}
	var out []int
	idx.ITTree.Tids(id).ForEach(func(r int) bool {
		if int32(idx.Dataset.Value(r, a)) == bound {
			out = append(out, r)
		}
		return true
	})
	return out
}

// allItemsCountPass is the count pass as it was before it became
// proportional to the delta: every tombstone removed from every item's
// tidset, every tidset re-packed.
func allItemsCountPass(s *Store) []*bitset.Set {
	d, sp := s.idx.Dataset, s.idx.Space
	baseN := d.NumRecords()
	capN := baseN + len(s.rows)
	tids := make([]*bitset.Set, sp.NumItems())
	for i, t := range s.idx.Tidsets {
		g := t.CloneGrown(capN)
		s.tombs.ForEach(func(r int) bool {
			g.Remove(r)
			return true
		})
		tids[i] = g
	}
	for k, row := range s.rows {
		if s.dead[k] {
			continue
		}
		for a, v := range row {
			tids[sp.ItemOf(a, int(v))].Add(baseN + k)
		}
	}
	for _, t := range tids {
		t.Optimize()
	}
	return tids
}

// TestViewBoxesAndTidsetsUnderChurn interleaves inserts, deletes of
// buffered rows and deletes of base records chosen to lie on CFI box
// boundaries, and after every batch holds the merged view to its
// definitions: every box is the [min,max] per attribute of the CFI's
// merged supporters, scanned record by record, every CFI's support is
// the count of its items' intersection (the view stores no CFI tidset),
// every merged tidset is what the all-items count pass produces, the
// live mask is exact, and a tidset no changed record belongs to is the
// base tidset untouched.
func TestViewBoxesAndTidsetsUnderChurn(t *testing.T) {
	moved := 0    // merged boxes that differ from the frozen box of the same itemset
	fresh := 0    // merged CFIs the frozen index does not store
	reprobed := 0 // stored CFIs with a tombstoned supporter on a bound
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := edgyIndex(t, rng)
		sp, d := idx.Space, idx.Dataset
		baseN := d.NumRecords()
		s := NewStore(idx, 0.08)
		// Every other seed builds its views serially: the box fan-out
		// sizes itself from GOMAXPROCS.
		runtime.GOMAXPROCS(1 + int(seed%2))
		inserted := 0
		for batch := 0; batch < 8; batch++ {
			var rows [][]int32
			for k := rng.Intn(4); k > 0; k-- {
				row := make([]int32, sp.NumAttrs())
				for a, v := range edgyRow(rng, idx.Cards) {
					row[a] = int32(v)
				}
				rows = append(rows, row)
			}
			var deletes []int
			if n := idx.ITTree.Size(); n > 0 && rng.Intn(3) > 0 {
				deletes = boundaryRecords(idx, rng.Intn(n), rng)
				if len(deletes) > 6 {
					deletes = deletes[:6] // a partial sweep must leave the bound alone
				}
			}
			if rng.Intn(2) == 0 {
				deletes = append(deletes, rng.Intn(baseN))
			}
			if inserted > 0 && rng.Intn(2) == 0 {
				deletes = append(deletes, baseN+rng.Intn(inserted))
			}
			if len(rows) == 0 && len(deletes) == 0 {
				deletes = []int{rng.Intn(baseN)}
			}
			if _, err := s.Ingest(rows, deletes); err != nil {
				t.Fatal(err)
			}
			inserted += len(rows)
			v := surface(t, s)

			want := allItemsCountPass(s)
			changed := make([]bool, sp.NumItems())
			mark := func(value func(a int) int) {
				for a := 0; a < sp.NumAttrs(); a++ {
					changed[sp.ItemOf(a, value(a))] = true
				}
			}
			s.tombs.ForEach(func(r int) bool {
				mark(func(a int) int { return d.Value(r, a) })
				return true
			})
			for _, row := range s.rows {
				mark(func(a int) int { return int(row[a]) })
			}
			for it, got := range v.Tidsets {
				if !got.Equal(want[it]) {
					t.Fatalf("seed %d batch %d: merged tidset of item %d differs from the all-items count pass", seed, batch, it)
				}
				if !changed[it] {
					if !reflect.DeepEqual(idx.Tidsets[it].CloneGrown(v.NumRecords), got) {
						t.Fatalf("seed %d batch %d: item %d belongs to no changed record, yet its tidset was re-encoded", seed, batch, it)
					}
				}
			}
			for r := 0; r < v.NumRecords; r++ {
				alive := r >= baseN && !s.dead[r-baseN] || r < baseN && !s.tombs.Contains(r)
				if v.Live.Contains(r) != alive {
					t.Fatalf("seed %d batch %d: record %d live=%v, want %v", seed, batch, r, v.Live.Contains(r), alive)
				}
			}
			for id := 0; id < v.Tree.Size(); id++ {
				got := v.RTree.Box(id)
				if v.Tree.Tids(id) != nil {
					t.Fatalf("seed %d batch %d: the view stores a tidset for CFI %d", seed, batch, id)
				}
				c := oracleCFI(v.Tidsets, v.Tree.Set(id))
				if c.Support != c.Tids.Count() {
					t.Fatalf("seed %d batch %d: %v has support %d, its items' merged tidsets intersect in %d",
						seed, batch, c.Items, c.Support, c.Tids.Count())
				}
				want := scanBox(v, idx.Cards, c.Tids)
				if !equalBox(got, want) {
					t.Fatalf("seed %d batch %d: box of %v is %v, a scan of its merged supporters gives %v",
						seed, batch, c.Items, got, want)
				}
				fid, ok := idx.ITTree.LookupID(c.Items)
				switch {
				case !ok:
					fresh++
				case tombOnBound(s, idx.RTree.Box(fid), c.Items):
					reprobed++
				}
				if ok && !equalBox(got, idx.RTree.Box(fid)) {
					moved++
				}
			}
		}
	}
	if moved < 50 {
		t.Errorf("only %d patched boxes moved off their frozen box: the interleavings no longer reach the patch paths", moved)
	}
	// Both places mergedBox forms a CFI's word vector from its items: an
	// itemset the frozen index does not store, and a stored one whose
	// bound a tombstoned supporter sat on.
	if fresh < 100 || reprobed < 100 {
		t.Errorf("%d unstored CFIs and %d re-probed bounds: the interleavings no longer reach both vector probes", fresh, reprobed)
	}
}

// oracleCFI returns a copy of view CFI c carrying the tidset the view
// no longer stores: the intersection of its items' merged tidsets.
func oracleCFI(tids []*bitset.Set, c charm.ClosedSet) *charm.ClosedSet {
	inter := tids[c.Items[0]].Clone()
	for _, it := range c.Items[1:] {
		inter.And(tids[it])
	}
	return &charm.ClosedSet{Items: c.Items, Tids: inter, Support: c.Support}
}

// tombOnBound reports whether a tombstoned base record holding every
// item of x sits on a bound of x's frozen box, on an attribute x does
// not constrain: the case in which mergedBox re-probes that bound.
func tombOnBound(s *Store, box itemset.Box, x itemset.Set) bool {
	sp, d := s.idx.Space, s.idx.Dataset
	fixed := make([]bool, sp.NumAttrs())
	for _, it := range x {
		fixed[sp.AttrOf(it)] = true
	}
	found := false
	s.tombs.ForEach(func(r int) bool {
		row := baseRow(d, r)
		for _, it := range x {
			if a := sp.AttrOf(it); sp.ItemOf(a, int(row[a])) != it {
				return true
			}
		}
		for a, v := range row {
			if !fixed[a] && (v == box.Lo[a] || v == box.Hi[a]) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// TestMergedBoxWhenEverySupporterIsReplaced covers the patch path's
// corner: all frozen supporters of a stored itemset are tombstoned and
// the buffered rows that keep it frequent lie wholly below the old box,
// so the re-probe from the old bound finds nothing and the buffered
// supporters alone set the interval.
func TestMergedBoxWhenEverySupporterIsReplaced(t *testing.T) {
	b := relation.NewBuilder("t", "A", "B", "C")
	for _, r := range [][]string{
		{"a0", "b2", "c0"}, {"a0", "b3", "c0"}, {"a0", "b2", "c0"}, {"a0", "b3", "c0"},
		{"a1", "b0", "c1"}, {"a1", "b1", "c1"}, {"a1", "b2", "c1"}, {"a1", "b3", "c1"},
	} {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	val := func(a int, label string) int32 { return int32(d.Attrs[a].ValueIndex(label)) }
	row := func(bLabel string) []int32 { return []int32{val(0, "a0"), val(1, bLabel), val(2, "c0")} }
	s := NewStore(idx, 0.2)
	if _, err := s.Ingest([][]int32{row("b0"), row("b1"), row("b0"), row("b1")}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v := surface(t, s)
	x := itemset.Set{idx.Space.ItemOf(0, int(val(0, "a0"))), idx.Space.ItemOf(2, int(val(2, "c0")))}
	if _, ok := idx.ITTree.LookupID(x); !ok {
		t.Fatal("fixture: the frozen index does not store {a0,c0}")
	}
	id, ok := v.Tree.LookupID(x)
	if !ok {
		t.Fatal("fixture: the merged view does not store {a0,c0}")
	}
	if lo, hi := v.RTree.Box(id).Lo[1], v.RTree.Box(id).Hi[1]; lo != val(1, "b0") || hi != val(1, "b1") {
		t.Errorf("B extent of {a0,c0} is [%d,%d], want [b0,b1]", lo, hi)
	}
	for id := 0; id < v.Tree.Size(); id++ {
		got := v.RTree.Box(id)
		if want := scanBox(v, idx.Cards, oracleCFI(v.Tidsets, v.Tree.Set(id)).Tids); !equalBox(got, want) {
			t.Errorf("box of %v is %v, a scan of its merged supporters gives %v", v.Tree.Set(id).Items, got, want)
		}
	}
}

// scanBox is the box by definition: per attribute, the [min,max] value
// of the view's records in tids.
func scanBox(v *plans.Surface, cards []int, tids *bitset.Set) itemset.Box {
	b := itemset.NewBox(len(cards))
	for a := range cards {
		b.Lo[a], b.Hi[a] = int32(cards[a]), -1
	}
	tids.ForEach(func(r int) bool {
		for a := range cards {
			val := int32(v.Value(r, a))
			b.Lo[a], b.Hi[a] = min(b.Lo[a], val), max(b.Hi[a], val)
		}
		return true
	})
	return b
}

func equalBox(a, b itemset.Box) bool {
	return a.Dims() == b.Dims() && a.ContainsBox(b) && b.ContainsBox(a)
}

// BenchmarkViewBuild is the merged-view build of the served
// ingest_notify workload in isolation: full mushroom indexed at 0.30,
// batches of alternately 4 inserts + 3 deletes and 3 inserts + 4
// deletes (copies of base records in, the oldest earlier inserts out),
// one Surface() per batch.
func BenchmarkViewBuild(b *testing.B) {
	d, err := datagen.Generate(datagen.MushroomConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.30})
	if err != nil {
		b.Fatal(err)
	}
	s := NewStore(idx, 0.30)
	rng := rand.New(rand.NewSource(1))
	baseN := d.NumRecords()
	inserted, deleted := 0, 0
	batch := func(i int) {
		ins, del := 4-i%2, 3+i%2
		rows := make([][]int32, ins)
		for k := range rows {
			rows[k] = baseRow(d, rng.Intn(baseN))
		}
		var deletes []int
		for ; del > 0 && deleted < inserted; del-- {
			deletes = append(deletes, baseN+deleted)
			deleted++
		}
		if _, err := s.Ingest(rows, deletes); err != nil {
			b.Fatal(err)
		}
		inserted += ins
		if surface(b, s).Version == 0 {
			b.Fatal("no merged surface after an ingest")
		}
	}
	for i := 0; i < 10; i++ {
		batch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(i)
	}
}

// BenchmarkRefreshCrossover measures what RebuildDivisor rests on: the
// merged-view build against a rebuild (MergedDataset + mip.Build) at a
// share of changed rows — half copies of base records inserted, half
// base records deleted — on mushroom @ 0.30 and chess @ 0.70. A view
// build is timed on an empty batch, which bumps the version without
// changing the delta.
func BenchmarkRefreshCrossover(b *testing.B) {
	for _, c := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
	}{
		{"mushroom@0.30", datagen.MushroomConfig(1), 0.30},
		{"chess@0.70", datagen.ChessConfig(1), 0.70},
	} {
		d, err := datagen.Generate(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: c.primary})
		if err != nil {
			b.Fatal(err)
		}
		baseN := d.NumRecords()
		for _, frac := range []float64{0.001, 0.03, 0.05, 0.08} {
			s := NewStore(idx, c.primary)
			rng := rand.New(rand.NewSource(1))
			changed := max(2, int(frac*float64(baseN)))
			rows := make([][]int32, changed/2)
			for k := range rows {
				rows[k] = baseRow(d, rng.Intn(baseN))
			}
			deletes := rng.Perm(baseN)[:changed-len(rows)]
			if _, err := s.Ingest(rows, deletes); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/changed=%.1f%%/view", c.name, 100*frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Ingest(nil, nil); err != nil {
						b.Fatal(err)
					}
					surface(b, s)
				}
			})
			b.Run(fmt.Sprintf("%s/changed=%.1f%%/rebuild", c.name, 100*frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					md, err := s.MergedDataset()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := mip.Build(md, mip.Options{PrimarySupport: c.primary, Fanout: idx.RTree.Fanout()}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
