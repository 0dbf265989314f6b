package plans

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
)

// layoutSizes are the focal-subset sizes the layout tests draw: one
// record, and one short of, at and past one and two vector words.
var layoutSizes = []int{1, 63, 64, 65, 127, 128, 129}

// randomFocal draws a focal subset of size live records of s at
// minsupport minSupp, with an empty layout.
func randomFocal(r *rand.Rand, s *Surface, size int, minSupp float64) *Focal {
	var live []int
	for id := 0; id < s.NumRecords; id++ {
		if s.Live == nil || s.Live.Contains(id) {
			live = append(live, id)
		}
	}
	ids := make([]int, size)
	for k, p := range r.Perm(len(live))[:size] {
		ids[k] = live[p]
	}
	return &Focal{Surface: s, DQ: bitset.FromIDs(s.NumRecords, ids...), Size: size, MinCount: charm.CountFor(minSupp, size)}
}

// TestFocalLayoutCounts holds every reader of D^Q's layout to chainCount
// on a 406-record mushroom, over its frozen index and a merged surface
// with inserts and deletes, at every size in layoutSizes: the
// optimizer's sample (Reaches, Count), ELIMINATE's item bound
// (itemCount) and checks, VERIFY's closure misses (countItems) and ARM's
// oracle. The readers run in a random order on each focal subset, so
// each of them meets vectors another one built, and Count(∅) is |D^Q|.
func TestFocalLayoutCounts(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.MushroomConfig(1), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(43))
	ex := &Executor{Space: idx.Space, Workers: 4}
	misses, asked := 0, 0
	for _, s := range surfaceTable(t, r, idx, 0.5) {
		all := make([]candidate, s.Tree.Size())
		for id := range all {
			all[id] = candidate{id: int32(id), rel: itemset.Partial}
		}
		for _, size := range layoutSizes {
			for _, minSupp := range []float64{0.3, 0.7} {
				f := randomFocal(r, s.Surface, size, minSupp)
				q := &Query{Region: itemset.RegionFor(idx.Space), MinSupport: minSupp, MinConfidence: 0.5, MaxConsequent: 1}
				label := fmt.Sprintf("%s |DQ|=%d MinCount=%d", s.name, size, f.MinCount)
				check := func(reader string, x itemset.Set, got int) {
					t.Helper()
					if want := chainCount(f.DQ, s.Tidsets, x); got != want {
						t.Fatalf("%s: %s counts %v as %d, D^Q holds %d", label, reader, x, got, want)
					}
					asked++
				}
				sample := func() {
					for id := 0; id < s.Tree.Size(); id += 3 {
						x := s.Tree.Items(id)
						want := chainCount(f.DQ, s.Tidsets, x) >= f.MinCount
						if got := f.Reaches(x); got != want {
							t.Fatalf("%s: Reaches(%v) = %v", label, x, got)
						}
						if id%2 == 0 {
							check("Count", x, f.Count(x))
						}
					}
				}
				itemBound := func() {
					c := ex.newCtx(context.Background(), f, q)
					for it := range s.Tidsets {
						x := itemset.Set{itemset.Item(it)}
						n, checked := c.itemCount(x[0])
						if !checked {
							if n != s.Tidsets[it].Count() || n >= f.MinCount {
								t.Fatalf("%s: item %d skipped with global count %d", label, it, n)
							}
							continue
						}
						check("the item bound", x, n)
					}
				}
				eliminateVerify := func() {
					c := ex.newCtx(context.Background(), f, q)
					quals, err := c.eliminate(all, false)
					if err != nil {
						t.Fatal(err)
					}
					for id := range c.cfi {
						if n, ok := c.local(id); ok {
							check("ELIMINATE", s.Tree.Items(id), n)
						}
					}
					if _, err := c.verify(quals); err != nil {
						t.Fatal(err)
					}
					for _, ql := range quals {
						for drop := range ql.body {
							x := append(ql.body[:drop:drop], ql.body[drop+1:]...)
							if id, _ := s.Tree.ClosureID(x); c.cfi[id] <= 0 {
								misses++
							}
							check("a VERIFY closure miss", x, c.countItems(x))
						}
					}
				}
				arm := func() {
					items, _, err := ex.newCtx(context.Background(), f, q).selectItems()
					if err != nil {
						t.Fatal(err)
					}
					var tally counterTally
					oracle := armOracle(f, &tally)
					for a := range items {
						for b := a + 1; b < len(items); b++ {
							x := itemset.Set{items[a], items[b]}
							check("ARM's oracle", x, oracle(x))
						}
					}
				}
				readers := []func(){sample, itemBound, eliminateVerify, arm}
				r.Shuffle(len(readers), func(i, j int) { readers[i], readers[j] = readers[j], readers[i] })
				for _, read := range readers {
					read()
				}
				if n := f.Count(nil); n != size {
					t.Fatalf("%s: Count(∅) = %d", label, n)
				}
			}
		}
	}
	if misses == 0 {
		t.Fatalf("%d counts checked, none a VERIFY closure miss", asked)
	}
	t.Logf("%d counts checked, %d VERIFY closure misses", asked, misses)
}

// FuzzFocalCount holds Focal.Count and Focal.Reaches to chainCount over
// random item tidsets of a surface of up to 300 records, for a focal
// subset of a size in layoutSizes or a random one: a fuzzed sequence of
// itemsets, so vectors are built in any order and by either method.
func FuzzFocalCount(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(3), []byte{7, 7, 0, 12, 5})
	f.Add(int64(3), uint8(6), []byte{255, 9, 4, 33, 1, 2})
	f.Add(int64(4), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, sizeSel uint8, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		n := 129 + r.Intn(172)
		tids := make([]*bitset.Set, 1+r.Intn(12))
		for it := range tids {
			tids[it] = bitset.New(n)
			p := r.Float64()
			for id := 0; id < n; id++ {
				if r.Float64() < p {
					tids[it].Add(id)
				}
			}
		}
		size := 1 + r.Intn(n)
		if k := int(sizeSel); k < len(layoutSizes) {
			size = layoutSizes[k]
		}
		s := &Surface{Tidsets: tids, NumRecords: n}
		fc := randomFocal(r, s, size, r.Float64())
		for len(ops) > 0 {
			k := min(len(ops), 1+int(ops[0])%4)
			var x itemset.Set
			for _, b := range ops[:k] {
				x = x.Union(itemset.Set{itemset.Item(int(b) % len(tids))})
			}
			ops = ops[k:]
			want := chainCount(fc.DQ, tids, x)
			if k%2 == 0 {
				if got := fc.Reaches(x); got != (want >= fc.MinCount) {
					t.Fatalf("|DQ|=%d MinCount=%d: Reaches(%v) = %v, D^Q holds %d", size, fc.MinCount, x, got, want)
				}
			}
			if got := fc.Count(x); got != want {
				t.Fatalf("|DQ|=%d: Count(%v) = %d, D^Q holds %d", size, x, got, want)
			}
		}
		if got := fc.Count(nil); got != size {
			t.Fatalf("Count(∅) = %d, |DQ| = %d", got, size)
		}
	})
}
