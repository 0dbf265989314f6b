package cost

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/relation"
)

// skewedDataset builds a dataset with correlated blocks so CFIs exist.
func skewedDataset(t testing.TB, seed int64, m int) *relation.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nAttrs := 4
	b := relation.NewBuilder("skewed", "A", "B", "C", "D")
	for a := 0; a < nAttrs; a++ {
		for v := 0; v < 4; v++ {
			b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
		}
	}
	for i := 0; i < m; i++ {
		row := make([]int, nAttrs)
		base := r.Intn(2)
		for a := range row {
			if r.Intn(4) > 0 {
				row[a] = base
			} else {
				row[a] = r.Intn(4)
			}
		}
		if err := b.AddRecordIdx(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// fixture is a model over one frozen index with the executor whose
// focal subsets it prices.
type fixture struct {
	mo   *Model
	ex   *plans.Executor
	idx  *mip.Index
	surf *plans.Surface
}

func buildModel(t testing.TB, m int) fixture {
	t.Helper()
	d := skewedDataset(t, 42, m)
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.1, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{NewModel(idx), plans.NewExecutor(idx.Space), idx, plans.NewSurface(idx)}
}

func (fx fixture) focus(q *plans.Query) *plans.Focal { return fx.ex.Focus(fx.surf, q) }

func TestNewModelStats(t *testing.T) {
	fx := buildModel(t, 300)
	mo := fx.mo
	if mo.avgLen <= 1 {
		t.Errorf("avgLen = %v, want > 1", mo.avgLen)
	}
	for a, f := range mo.attrFrac {
		if f < 0 || f > 1 {
			t.Errorf("attrFrac[%d] = %v", a, f)
		}
	}
}

func TestEstimateShapes(t *testing.T) {
	fx := buildModel(t, 300)
	reg := itemset.RegionFor(fx.idx.Space)
	if err := reg.Restrict(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.8}
	ests := fx.mo.Estimate(fx.focus(q), q)
	if len(ests) != 6 {
		t.Fatalf("estimates = %d", len(ests))
	}
	byPlan := map[plans.Kind]Estimate{}
	for _, e := range ests {
		if e.Total < 0 {
			t.Errorf("%v total negative: %v", e.Plan, e.Total)
		}
		byPlan[e.Plan] = e
	}
	// The supported search must never expect more candidates than the
	// plain search.
	if byPlan[plans.SSEV].Candidates > byPlan[plans.SEV].Candidates+1e-9 {
		t.Errorf("SS candidates %v > S candidates %v",
			byPlan[plans.SSEV].Candidates, byPlan[plans.SEV].Candidates)
	}
	// SS-E-U-V must not cost more in ELIMINATE than SS-E-V (the
	// contained shortcut removes checks).
	if byPlan[plans.SSEUV].Eliminate > byPlan[plans.SSEV].Eliminate+1e-9 {
		t.Errorf("SSEUV eliminate %v > SSEV eliminate %v",
			byPlan[plans.SSEUV].Eliminate, byPlan[plans.SSEV].Eliminate)
	}
	// Contained estimate bounded by candidates.
	for _, e := range ests {
		if e.Contained > e.Candidates+1e-9 {
			t.Errorf("%v contained %v > candidates %v", e.Plan, e.Contained, e.Candidates)
		}
	}
}

func TestEmptyRegionEstimatesZero(t *testing.T) {
	fx := buildModel(t, 100)
	reg := itemset.RegionFor(fx.idx.Space)
	// Make an empty region: restrict to a value then to nothing.
	if err := reg.Restrict(0, nil); err != nil {
		t.Fatal(err)
	}
	q := &plans.Query{Region: reg, MinSupport: 0.3, MinConfidence: 0.8}
	for _, e := range fx.mo.Estimate(fx.focus(q), q) {
		if e.Total != 0 {
			t.Errorf("%v estimate on empty region = %v", e.Plan, e.Total)
		}
	}
}

func TestChooseReturnsArgmin(t *testing.T) {
	fx := buildModel(t, 300)
	reg := itemset.RegionFor(fx.idx.Space)
	q := &plans.Query{Region: reg, MinSupport: 0.5, MinConfidence: 0.9}
	best, ests := fx.mo.Choose(fx.focus(q), q)
	for _, e := range ests {
		if e.Plan == best {
			continue
		}
		var bt float64
		for _, x := range ests {
			if x.Plan == best {
				bt = x.Total
			}
		}
		if e.Total < bt {
			t.Errorf("Choose picked %v (%v) but %v is cheaper (%v)", best, bt, e.Plan, e.Total)
		}
	}
}

// TestCostTracksMeasuredOrdering checks the model's key fitness-for-
// purpose property on a moderate dataset: across a spread of queries,
// the plan the model picks should rarely be much worse than the best
// measured plan (the paper reports <=5% regret on mispicks; we allow a
// generous factor on this small synthetic workload).
func TestCostTracksMeasuredOrdering(t *testing.T) {
	fx := buildModel(t, 600)
	r := rand.New(rand.NewSource(7))
	queries := 0
	regressions := 0
	for trial := 0; trial < 12; trial++ {
		reg := itemset.RegionFor(fx.idx.Space)
		for a := 0; a < fx.idx.Space.NumAttrs(); a++ {
			if r.Intn(2) == 0 {
				continue
			}
			card := fx.idx.Space.Cardinality(a)
			var vals []int
			for v := 0; v < card; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				vals = []int{r.Intn(card)}
			}
			if err := reg.Restrict(a, vals); err != nil {
				t.Fatal(err)
			}
		}
		q := &plans.Query{Region: reg, MinSupport: 0.2 + r.Float64()*0.6, MinConfidence: 0.8}
		chosen, _ := fx.mo.Choose(fx.focus(q), q)

		// Measure all plans by operation counts (deterministic proxy
		// for time: support checks dominate).
		work := map[plans.Kind]int{}
		for _, k := range plans.Kinds() {
			res, err := fx.ex.Run(k, fx.surf, q)
			if err != nil {
				t.Fatal(err)
			}
			w := res.Stats.SupportChecks*10 + res.Stats.REntriesChecked +
				res.Stats.RNodesVisited + res.Stats.ARMFrequentItemsets*12 +
				res.Stats.OracleCalls
			work[k] = w
		}
		best := chosen
		for k, w := range work {
			if w < work[best] {
				best = k
			}
		}
		queries++
		if work[chosen] > 4*work[best]+400 {
			regressions++
			t.Logf("trial %d: chose %v (work %d) vs best %v/%d", trial, chosen, work[chosen], best, work[best])
		}
	}
	if regressions > queries/3 {
		t.Errorf("optimizer badly mispredicted %d/%d queries", regressions, queries)
	}
}

// mapProbe is the record sample of probe as it was before the per-item
// masks: counts, frequent items and frequent pairs in maps, distinct rows
// by string key. It fills the same shape fields probe does.
func mapProbe(mo *Model, q *plans.Query, s *queryShape) {
	f, sf := s.f, s.f.Surface
	n := sf.Tree.Size()
	if n == 0 || f.Size == 0 {
		return
	}
	step := n / probeMIPs
	if step < 1 {
		step = 1
	}
	var sampled, overlap, overlapSS, contained, containedSS, qual int
	for id := 0; id < n; id += step {
		sampled++
		passSS := sf.Tree.Support(id) >= f.MinCount
		rel := q.Region.Relation(sf.RTree.Box(id))
		if rel == itemset.Disjoint {
			continue
		}
		overlap++
		if passSS {
			overlapSS++
		}
		if rel == itemset.Contained {
			contained++
			if passSS {
				containedSS++
			}
		}
		if bitset.AndCount(sf.Tree.Tids(id), f.DQ) >= f.MinCount {
			qual++
		}
	}
	fs := float64(sampled)
	s.overlapFrac = float64(overlap) / fs
	s.overlapSSFrac = float64(overlapSS) / fs
	s.containedFrac = float64(contained) / fs
	s.containedSSFrac = float64(containedSS) / fs
	s.qualFrac = float64(qual) / fs

	ids := sampleIDs(f.DQ, probeRecords)
	if len(ids) == 0 {
		return
	}
	nAttrs := q.Region.Dims()
	mask := q.ItemAttrs
	counts := make(map[int32]int)
	rows := make([][]int32, 0, len(ids))
	rowKeys := make(map[string]bool, len(ids))
	var keyBuf []byte
	for _, r := range ids {
		row := make([]int32, 0, nAttrs)
		keyBuf = keyBuf[:0]
		for a := 0; a < nAttrs; a++ {
			if mask != nil && !mask[a] {
				continue
			}
			it := int32(mo.sp.ItemOf(a, sf.Value(r, a)))
			counts[it]++
			row = append(row, it)
			keyBuf = append(keyBuf, byte(it), byte(it>>8), byte(it>>16))
		}
		rowKeys[string(keyBuf)] = true
		rows = append(rows, row)
	}
	s.sampleRows = len(ids)
	s.distinctRows = len(rowKeys)
	need := int(math.Ceil(q.MinSupport * float64(len(ids))))
	if need < 1 {
		need = 1
	}
	freq := make(map[int32]bool)
	for it, c := range counts {
		if c >= need {
			freq[it] = true
		}
	}
	s.freqItems = float64(len(freq))
	if len(freq) >= 2 {
		pairCounts := make(map[int64]int)
		for _, row := range rows {
			fr := row[:0:0]
			for _, it := range row {
				if freq[it] {
					fr = append(fr, it)
				}
			}
			for i := 0; i < len(fr); i++ {
				for j := i + 1; j < len(fr); j++ {
					pairCounts[int64(fr[i])<<32|int64(fr[j])]++
				}
			}
		}
		freqPairs := 0
		for _, c := range pairCounts {
			if c >= need {
				freqPairs++
			}
		}
		total := float64(len(freq)) * float64(len(freq)-1) / 2
		s.pairDens = float64(freqPairs) / total
	}
}

// namedIndex is one benchmark dataset's index.
type namedIndex struct {
	name string
	*mip.Index
}

// quickIndexes builds the three benchmark datasets at the reduced scales
// and primaries of bench.Specs(false, 1), which this package's tests
// cannot import.
func quickIndexes(t *testing.T) []namedIndex {
	t.Helper()
	var out []namedIndex
	for _, c := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
	}{
		{"chess", datagen.Scaled(datagen.ChessConfig(1), 0.5), 0.70},
		{"mushroom", datagen.Scaled(datagen.MushroomConfig(1), 0.5), 0.10},
		{"pumsb", datagen.Scaled(datagen.PUMSBConfig(1), 0.15), 0.88},
	} {
		d, err := datagen.Generate(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: c.primary})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedIndex{c.name, idx})
	}
	return out
}

// TestProbeMatchesMapOracle holds the mask-based probe to the map-based
// one it replaced, field for field and float for float, over random
// regions, item masks and minsupports — down to minsupports at or below
// 1/49, where every sampled item is frequent.
func TestProbeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	checked := 0
	for _, ni := range quickIndexes(t) {
		name, idx := ni.name, ni.Index
		mo, ex, surf := NewModel(idx), plans.NewExecutor(idx.Space), plans.NewSurface(idx)
		sp := idx.Space
		for trial := 0; trial < 60; trial++ {
			reg := itemset.RegionFor(sp)
			for _, a := range r.Perm(sp.NumAttrs())[:r.Intn(4)] {
				var vals []int
				for v := 0; v < sp.Cardinality(a); v++ {
					if r.Intn(3) > 0 {
						vals = append(vals, v)
					}
				}
				if err := reg.Restrict(a, vals); err != nil {
					t.Fatal(err)
				}
			}
			var mask []bool
			if r.Intn(2) == 0 {
				mask = make([]bool, sp.NumAttrs())
				for a := range mask {
					mask[a] = r.Intn(3) == 0
				}
			}
			for _, minSupp := range []float64{0.01, 1.0 / 49, 0.3, 0.7, 0.9, 1} {
				q := &plans.Query{Region: reg, ItemAttrs: mask, MinSupport: minSupp, MinConfidence: 0.8}
				got := mo.shape(ex.Focus(surf, q), q)
				want := queryShape{f: got.f, dqExt: got.dqExt, maskKeep: got.maskKeep, itemAttrs: got.itemAttrs}
				mapProbe(mo, q, &want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d minsupp %v: probe\n got %+v\nwant %+v", name, trial, minSupp, got, want)
				}
				if got.sampleRows > 0 {
					checked++
				}
			}
		}
	}
	if checked < 500 {
		t.Errorf("only %d probes sampled records", checked)
	}
}

// TestProbeOnRecycledScratch runs probes one request after another, each
// Focal released so the next draws the scratch it used, and holds every
// probe to the map-based oracle: a probe that left a bit of its per-item
// masks set would skew the next one's counts.
func TestProbeOnRecycledScratch(t *testing.T) {
	fx := buildModel(t, 3000)
	sp := fx.idx.Space
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		reg := itemset.RegionFor(sp)
		for _, a := range r.Perm(sp.NumAttrs())[:r.Intn(3)] {
			if err := reg.Restrict(a, []int{r.Intn(4), r.Intn(4)}); err != nil {
				t.Fatal(err)
			}
		}
		var mask []bool
		if r.Intn(2) == 0 {
			mask = []bool{r.Intn(2) == 0, true, r.Intn(2) == 0, true}
		}
		q := &plans.Query{Region: reg, ItemAttrs: mask, MinSupport: []float64{0.01, 0.2, 0.5, 0.9}[r.Intn(4)], MinConfidence: 0.8}
		f := fx.focus(q)
		got := fx.mo.shape(f, q)
		want := queryShape{f: got.f, dqExt: got.dqExt, maskKeep: got.maskKeep, itemAttrs: got.itemAttrs}
		mapProbe(fx.mo, q, &want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: probe\n got %+v\nwant %+v", trial, got, want)
		}
		f.Release()
	}
}

// TestProbeAllocsIndependentOfUnnamedDomain grows an attribute the
// query does not name from 4 to 20 000 values and requires a probe's
// allocated bytes to stay within 10 %: its per-item masks come from the
// request's scratch and are cleared item by item, not allocated or
// cleared across the item universe.
func TestProbeAllocsIndependentOfUnnamedDomain(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	perProbe := func(values int) float64 {
		r := rand.New(rand.NewSource(7))
		b := relation.NewBuilder("wide", "A", "B", "C", "Z")
		for a := 0; a < 3; a++ {
			for v := 0; v < 4; v++ {
				b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
			}
		}
		for v := 0; v < values; v++ {
			b.AddValue(3, "z"+strconv.Itoa(v))
		}
		for i := 0; i < 2000; i++ {
			base := r.Intn(2)
			if err := b.AddRecordIdx(base, base^r.Intn(2), r.Intn(4), r.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.1, Fanout: 8})
		if err != nil {
			t.Fatal(err)
		}
		mo, ex, surf := NewModel(idx), plans.NewExecutor(idx.Space), plans.NewSurface(idx)
		reg := itemset.RegionFor(idx.Space)
		if err := reg.Restrict(0, []int{0}); err != nil {
			t.Fatal(err)
		}
		q := &plans.Query{Region: reg, MinSupport: 0.2, MinConfidence: 0.8}
		probe := func() {
			f := ex.Focus(surf, q)
			s := queryShape{f: f}
			mo.probe(q, &s)
			if s.sampleRows == 0 {
				t.Fatal("the probe sampled no records")
			}
			f.Release()
		}
		// A collection empties the scratch pool: of several rounds, keep
		// the fewest bytes a probe.
		const rounds, calls = 5, 20
		fewest := -1.0
		var before, after runtime.MemStats
		for round := 0; round < rounds; round++ {
			probe() // refill the pool
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				probe()
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.TotalAlloc-before.TotalAlloc) / calls; fewest < 0 || per < fewest {
				fewest = per
			}
		}
		return fewest
	}
	narrow, wide := perProbe(4), perProbe(20000)
	t.Logf("a probe allocates %.0f bytes at 4 values, %.0f at 20 000", narrow, wide)
	if wide > 1.1*narrow {
		t.Errorf("a probe allocates %.0f bytes with 4 values of Z, %.0f with 20 000", narrow, wide)
	}
}

// TestSampleIDsFitsAMask pins the contract the probe's per-item masks
// rest on: sampleIDs returns at most 64 ids — k+1 = 49 at probeRecords.
func TestSampleIDsFitsAMask(t *testing.T) {
	for _, n := range []int{1, 47, 48, 49, 97, 1000, 70000} {
		full := bitset.New(n)
		full.Fill()
		half := bitset.New(n)
		for id := 0; id < n; id += 2 {
			half.Add(id)
		}
		one := bitset.FromIDs(n, n-1)
		for _, dq := range []*bitset.Set{full, half, one} {
			ids := sampleIDs(dq, probeRecords)
			if len(ids) > 64 || len(ids) > probeRecords+1 {
				t.Errorf("n=%d |dq|=%d: %d ids", n, dq.Count(), len(ids))
			}
			if dq.Count() > 0 && len(ids) == 0 {
				t.Errorf("n=%d |dq|=%d: no ids", n, dq.Count())
			}
		}
	}
}

// TestSupportCheckCostCrossover pins the one price of a record-level
// check at its boundary: |D^Q| probes up to ⌊m/32⌋ focal records, a
// ⌈m/64⌉-word bitmap intersection from one record past it.
func TestSupportCheckCostCrossover(t *testing.T) {
	fx := buildModel(t, 300)
	m := fx.surf.NumRecords
	edge := m / 32
	if edge == 0 {
		t.Fatalf("m = %d: no focal size prices as a scan", m)
	}
	for _, c := range []struct {
		size int
		want float64
	}{
		{edge, float64(edge) * fx.mo.u.IDProbe},
		{edge + 1, float64((m+63)/64) * fx.mo.u.WordOp},
	} {
		f := &plans.Focal{Surface: fx.surf, Size: c.size}
		if got := fx.mo.supportCheckCost(queryShape{f: f}); got != c.want {
			t.Errorf("m=%d |D^Q|=%d: check priced %v, want %v", m, c.size, got, c.want)
		}
	}
}
