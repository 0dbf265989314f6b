package mip

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/relation"
	"colarm/internal/rtree"
)

func salary(t testing.TB) *relation.Dataset {
	t.Helper()
	b := relation.NewBuilder("salary", "Company", "Title", "Location", "Gender", "Age", "Salary")
	rows := [][]string{
		{"IBM", "QA Lead", "Boston", "M", "30-40", "60K-90K"},
		{"IBM", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"IBM", "Engg Mgr", "SFO", "M", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "SFO", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "M", "20-30", "90K-120K"},
		{"Google", "Tech Arch", "Boston", "M", "40-50", "120K-150K"},
		{"Microsoft", "Engg Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Microsoft", "Sw Engg", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Engg", "Seattle", "F", "20-30", "30K-60K"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuildValidation(t *testing.T) {
	d := salary(t)
	if _, err := Build(d, Options{PrimarySupport: 0}); err == nil {
		t.Error("primary support 0 must error")
	}
	if _, err := Build(d, Options{PrimarySupport: 1.5}); err == nil {
		t.Error("primary support > 1 must error")
	}
}

func TestBuildSalaryIndex(t *testing.T) {
	d := salary(t)
	idx, err := Build(d, Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatal(err)
	}
	if idx.NumMIPs() == 0 {
		t.Fatal("no MIPs")
	}
	if idx.PrimaryCount != 2 {
		t.Errorf("primary count = %d, want 2 (0.18 of 11)", idx.PrimaryCount)
	}
	// Every constrained dimension of every box must be a point at the
	// item's value.
	for id := 0; id < idx.NumMIPs(); id++ {
		c := idx.ITTree.Set(id)
		box := idx.RTree.Box(id)
		for _, it := range c.Items {
			a := idx.Space.AttrOf(it)
			v := int32(idx.Space.ValueOf(it))
			if box.Lo[a] != v || box.Hi[a] != v {
				t.Errorf("CFI %d dim %d not a point at %d: [%d,%d]", id, a, v, box.Lo[a], box.Hi[a])
			}
		}
	}
	// Statistics were produced.
	if levels := idx.RTree.Stats(idx.Cards); len(levels) != idx.RTree.Height() {
		t.Errorf("level stats %d != height %d", len(levels), idx.RTree.Height())
	}
}

func TestBoxesAreTight(t *testing.T) {
	d := salary(t)
	idx, err := Build(d, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	// For each CFI and each unconstrained dimension, the box edges must
	// touch actual supporting records (tightness).
	n := d.NumAttrs()
	for id := 0; id < idx.NumMIPs(); id++ {
		c := idx.ITTree.Set(id)
		box := idx.RTree.Box(id)
		constrained := make([]bool, n)
		for _, it := range c.Items {
			constrained[idx.Space.AttrOf(it)] = true
		}
		for a := 0; a < n; a++ {
			if constrained[a] {
				continue
			}
			loTouched, hiTouched := false, false
			c.Tids.ForEach(func(r int) bool {
				v := int32(d.Value(r, a))
				if v == box.Lo[a] {
					loTouched = true
				}
				if v == box.Hi[a] {
					hiTouched = true
				}
				return !(loTouched && hiTouched)
			})
			if !loTouched || !hiTouched {
				t.Errorf("CFI %d dim %d box [%d,%d] edge untouched", id, a, box.Lo[a], box.Hi[a])
			}
		}
	}
}

func TestSubsetBitmapMatchesScan(t *testing.T) {
	d := salary(t)
	idx, err := Build(d, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	// Female employees in Seattle — the paper's running example: the
	// last four records.
	reg, err := idx.RegionFromSelections(map[string][]string{
		"Location": {"Seattle"},
		"Gender":   {"F"},
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := idx.SubsetBitmap(reg)
	if got := bm.IDs(); len(got) != 4 || got[0] != 7 || got[3] != 10 {
		t.Fatalf("Seattle+F bitmap = %v, want records 7-10", got)
	}
	// Cross-check against a record scan.
	for r := 0; r < d.NumRecords(); r++ {
		want := reg.ContainsPoint(d.Record(r))
		if bm.Contains(r) != want {
			t.Errorf("record %d membership mismatch", r)
		}
	}
}

func TestRegionFromSelectionsErrors(t *testing.T) {
	d := salary(t)
	idx, err := Build(d, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.RegionFromSelections(map[string][]string{"Nope": {"x"}}); err == nil {
		t.Error("unknown attribute must error")
	}
	if _, err := idx.RegionFromSelections(map[string][]string{"Gender": {"X"}}); err == nil {
		t.Error("unknown value must error")
	}
}

func TestRTreeSearchFindsOverlappingMIPs(t *testing.T) {
	d := salary(t)
	idx, err := Build(d, Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := idx.RegionFromSelections(map[string][]string{
		"Location": {"Seattle"}, "Gender": {"F"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// R-tree search must agree with linear classification over all MIPs.
	got := map[int32]itemset.Rel{}
	idx.RTree.Search(reg, func(e rtree.Entry, rel itemset.Rel) bool {
		got[e.ID] = rel
		return true
	})
	for id := 0; id < idx.NumMIPs(); id++ {
		want := reg.Relation(idx.RTree.Box(id))
		if want == itemset.Disjoint {
			if _, ok := got[int32(id)]; ok {
				t.Errorf("disjoint MIP %d emitted", id)
			}
			continue
		}
		if got[int32(id)] != want {
			t.Errorf("MIP %d rel = %v, want %v", id, got[int32(id)], want)
		}
	}
}

// Property: on random datasets the full index validates, and the subset
// bitmap always equals a brute-force record scan.
func TestQuickIndexConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nAttrs := 2 + r.Intn(3)
		names := make([]string, nAttrs)
		cards := make([]int, nAttrs)
		for i := range names {
			names[i] = string(rune('A' + i))
			cards[i] = 2 + r.Intn(4)
		}
		b := relation.NewBuilder("rand", names...)
		for a := 0; a < nAttrs; a++ {
			for v := 0; v < cards[a]; v++ {
				b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
			}
		}
		m := 8 + r.Intn(30)
		for i := 0; i < m; i++ {
			row := make([]int, nAttrs)
			for a := range row {
				row[a] = r.Intn(cards[a])
			}
			if err := b.AddRecordIdx(row...); err != nil {
				return false
			}
		}
		d := b.Build()
		idx, err := Build(d, Options{
			PrimarySupport: 0.05 + r.Float64()*0.4,
			Fanout:         2 + r.Intn(8),
		})
		if err != nil {
			return false
		}
		if err := idx.Validate(); err != nil {
			return false
		}
		// Random region; bitmap equals scan.
		reg := itemset.RegionFor(idx.Space)
		for a := 0; a < nAttrs; a++ {
			if r.Intn(2) == 0 {
				continue
			}
			var vals []int
			for v := 0; v < cards[a]; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				vals = []int{r.Intn(cards[a])}
			}
			if err := reg.Restrict(a, vals); err != nil {
				return false
			}
		}
		bm := idx.SubsetBitmap(reg)
		for rec := 0; rec < m; rec++ {
			if bm.Contains(rec) != reg.ContainsPoint(d.Record(rec)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCFITidsetBytesPinned pins the resident size of the index's CFI
// tidsets on quarter-scale chess @ 0.70: the sum of Tids.Bytes() over
// all 8507 CFIs. A miner optimisation may change what mining allocates
// along the way, never the encoding or payload size of a tidset the
// index keeps. The value moved once, 9 471 060 → 10 594 570, when the
// run encoding was retired: with 799 records every container here is an
// array, and runs were smaller for the clustered ones. No benchmark
// workload's index has such containers.
func TestCFITidsetBytesPinned(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d, Options{PrimarySupport: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	cfis, total := idx.ITTree.Size(), 0
	for id := 0; id < cfis; id++ {
		total += idx.ITTree.Tids(id).Bytes()
	}
	const wantCFIs, wantBytes = 8507, 10594570
	if cfis != wantCFIs || total != wantBytes {
		t.Errorf("%d CFIs holding %d tidset bytes, want %d CFIs and %d bytes", cfis, total, wantCFIs, wantBytes)
	}
}

// TestAssembleAllocsFlat holds the index pipeline — IT-tree, boxes,
// pack — to an allocation count that does not grow with the CFI count:
// every box is written into the one id-ordered slab and every
// supporters vector into a worker's scratch. Chess at two primaries
// whose CFI counts differ by more than 5× must allocate alike, give or
// take a few objects per worker.
func TestAssembleAllocsFlat(t *testing.T) {
	d, err := datagen.Generate(datagen.ChessConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sp := itemset.NewSpace(d)
	tidsets := itemset.ItemTidsets(d, sp)
	cards := make([]int, sp.NumAttrs())
	for a := range cards {
		cards[a] = sp.Cardinality(a)
	}
	var cfis []int
	var allocs []float64
	for _, primary := range []float64{0.85, 0.70} {
		minCount := charm.CountFor(primary, d.NumRecords())
		items, vecs, err := charm.Frequent(tidsets, d.NumRecords(), minCount)
		if err != nil {
			t.Fatal(err)
		}
		res, err := charm.MineVectors(context.Background(), items, vecs, d.NumRecords(), minCount, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfis = append(cfis, res.Len())
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, _, err := Assemble(res, nil, sp, items, vecs, 0, func(p *Probe) {
				BoundingBox(sp, cards, tidsets, p.Items, p.Supporters(), p.Lo, p.Hi)
			}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("CFIs %v, allocations %v", cfis, allocs)
	if cfis[1] < 5*cfis[0] {
		t.Fatalf("CFI counts %v differ by less than 5×", cfis)
	}
	if slack := 4*float64(runtime.GOMAXPROCS(0)) + 8; allocs[1] > allocs[0]+slack {
		t.Errorf("%v CFIs allocate %v objects, %v CFIs %v: more than %v apart", cfis[1], allocs[1], cfis[0], allocs[0], slack)
	}
}
