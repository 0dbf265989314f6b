// Package cost implements COLARM's cost model and cost-based optimizer
// (paper Section 4, Equations 1–6, and the plan-selection study of
// Section 5.1). For each of the six mining plans the model produces a
// constant-time cost estimate from
//
//   - precomputed index statistics: per-level R-tree node counts and
//     average extents (Table 3's N_j and DP_{j,i}avg), the global
//     support distribution of the stored MIPs, per-attribute CFI
//     participation fractions, and the average CFI length;
//   - the query parameters: the focal subset's per-dimension extents
//     and size (DQ_i_avg and |D^Q|), minsupport and minconfidence;
//   - machine-calibrated unit costs for the primitive operations the
//     operators are built from (tidset word operations, box relation
//     tests, hash lookups, rule-generation steps).
//
// The optimizer simply evaluates the six closed-form estimates and picks
// the argmin — the paper's COLARM plan selection.
package cost

import (
	"math"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/rtree"
)

// Units are the calibrated primitive operation costs, in nanoseconds,
// fixed when the engine is assembled (DefaultUnits or MeasureUnits). The
// facade exports the type as colarm.UnitCosts and the serving layer
// marshals it as it is, so the tags are the wire names.
type Units struct {
	// WordOp is the cost of one 64-bit word step of a tidset
	// intersection (the unit of ELIMINATE/VERIFY record-level checks).
	WordOp float64 `json:"wordOp"`
	// BoxRel is the per-dimension cost of classifying one box against
	// the query region (the unit of R-tree traversal).
	BoxRel float64 `json:"boxRel"`
	// IDProbe is the cost of probing one record id against a tidset
	// (the unit of the ScanCheck record-level checks).
	IDProbe float64 `json:"idProbe"`
	// MapOp is the cost of one hash-map probe (closure caches, dedup).
	MapOp float64 `json:"mapOp"`
	// GenOp is the bookkeeping cost of one rule-generation step.
	GenOp float64 `json:"genOp"`
}

// DefaultUnits are conservative defaults used when calibration is
// skipped; they reflect typical modern hardware ratios for the flat
// slab layout's primitives: packed-arena box classification and
// open-addressed integer hashing, which are markedly cheaper than the
// pointer layout's Box views and string-keyed maps they replaced.
func DefaultUnits() Units {
	return Units{WordOp: 0.6, BoxRel: 2.0, IDProbe: 1.5, MapOp: 8, GenOp: 16}
}

// MeasureUnits micro-benchmarks the primitive operations on this
// machine. m is the dataset's record count (tidset width); dims the
// dimensionality.
func MeasureUnits(m, dims int) Units {
	if m < 64 {
		m = 64
	}
	if dims < 1 {
		dims = 1
	}
	u := Units{}

	// WordOp and IDProbe are defined against bitmap containers — the
	// model's operator estimates multiply them by dense word counts — so
	// the two micro-benchmark sets come from NewDense, whose bitmaps Add
	// never demotes. Built by New, these small strided sets would pack
	// into array containers, whose element-at-a-time kernels make a
	// per-word normalization meaningless.
	a, b := bitset.NewDense(m), bitset.NewDense(m)
	for i := 0; i < m; i += 3 {
		a.Add(i)
	}
	for i := 0; i < m; i += 2 {
		b.Add(i)
	}
	words := float64((m + 63) / 64)
	const wreps = 2000
	start := time.Now()
	sink := 0
	for i := 0; i < wreps; i++ {
		sink += bitset.AndCount(a, b)
	}
	u.WordOp = float64(time.Since(start).Nanoseconds()) / (wreps * words)

	// Per-record-id probes.
	ids := a.IDs()
	if len(ids) == 0 {
		ids = []int{0}
	}
	start = time.Now()
	const preps = 300
	for i := 0; i < preps; i++ {
		for _, id := range ids {
			if b.Contains(id) {
				sink++
			}
		}
	}
	u.IDProbe = float64(time.Since(start).Nanoseconds()) / float64(preps*len(ids))

	// Box relation tests, against the packed-arena form the flat
	// R-tree search actually classifies (Lo run then Hi run per box).
	cards := make([]int, dims)
	for d := range cards {
		cards[d] = 8
	}
	reg := itemset.NewRegion(cards)
	_ = reg.Restrict(0, []int{1, 2, 3})
	arena := make([]int32, 2*dims)
	for d := 0; d < dims; d++ {
		arena[d], arena[dims+d] = 1, 4
	}
	const breps = 20000
	start = time.Now()
	rel := itemset.Disjoint
	for i := 0; i < breps; i++ {
		rel = reg.RelationPacked(arena, 0, dims)
	}
	u.BoxRel = float64(time.Since(start).Nanoseconds()) / (breps * float64(dims))
	_ = rel

	// Hash probes, against an open-addressed integer table mirroring
	// the flat IT-tree's exact-lookup hash (the layout replaced the
	// string-keyed map the pointer index used for closure caches and
	// dedup, so the unit tracks the cheaper primitive).
	const tbits = 11
	table := make([]uint64, 1<<tbits)
	for i := uint64(1); i <= 1024; i++ {
		h := i * 0x9e3779b97f4a7c15
		s := h >> (64 - tbits)
		for table[s] != 0 {
			s = (s + 1) & (1<<tbits - 1)
		}
		table[s] = i
	}
	const mreps = 100000
	start = time.Now()
	for i := 0; i < mreps; i++ {
		k := uint64(i&1023) + 1
		s := (k * 0x9e3779b97f4a7c15) >> (64 - tbits)
		for table[s] != 0 && table[s] != k {
			s = (s + 1) & (1<<tbits - 1)
		}
		sink += int(table[s])
	}
	u.MapOp = float64(time.Since(start).Nanoseconds()) / mreps

	// Rule-generation bookkeeping: approximate with slice+map work.
	u.GenOp = u.MapOp * 2
	if sink == -1 {
		panic("unreachable")
	}
	return u
}

// Estimate is one plan's cost prediction with its term breakdown, so the
// CLI can explain optimizer decisions.
type Estimate struct {
	Plan  plans.Kind
	Total float64 // nanoseconds (model scale)

	Search    float64 // SEARCH / SUPPORTED-SEARCH / SELECT term
	Eliminate float64 // record-level support checking term
	Verify    float64 // rule generation + confidence term
	Mine      float64 // ARM's from-scratch mining term

	// Intermediate cardinality estimates (paper Lemmas 4.1–4.2).
	Candidates float64 // |{I^Q_S}| or |{I^Q_SS}|
	Contained  float64 // estimated contained MIPs
	Qualified  float64 // |{I^Q_E}|
}

// EstimateTerm is one named cost component of an estimate, labeled with
// the operator the query trace records for it, so predicted and
// measured per-operator costs line up.
type EstimateTerm struct {
	Operator string
	Cost     float64
}

// Terms returns the estimate's cost components in pipeline order,
// labeled with the trace's operator names. Zero-cost components are
// included so the breakdown is positionally stable per plan.
func (e Estimate) Terms() []EstimateTerm {
	if e.Plan == plans.ARM {
		return []EstimateTerm{
			{Operator: "SELECT", Cost: e.Search},
			{Operator: "ARM", Cost: e.Mine},
			{Operator: "VERIFY", Cost: e.Verify},
		}
	}
	search := "SEARCH"
	if e.Plan == plans.SSEV || e.Plan == plans.SSVS || e.Plan == plans.SSEUV {
		search = "SUPPORTED-SEARCH"
	}
	return []EstimateTerm{
		{Operator: search, Cost: e.Search},
		{Operator: "ELIMINATE", Cost: e.Eliminate},
		{Operator: "VERIFY", Cost: e.Verify},
	}
}

// Model evaluates the six plan estimates for queries against one index.
type Model struct {
	Idx *mip.Index
	U   Units
	// Mode mirrors the executor's record-level check implementation so
	// the estimates track what will actually run.
	Mode plans.CheckMode
	// Shards is the engine's shard count K. Values above 1 add the
	// scatter-gather overhead terms — per-query fan-out setup and
	// per-check dispatch bookkeeping — to every estimate; at K <= 1 the
	// estimates are exactly the monolithic model's.
	Shards int

	// attrFrac[a] is the fraction of stored CFIs containing an item of
	// attribute a — the selectivity of the item-attribute filter.
	attrFrac []float64
	// avgLen is the mean stored CFI length (C_I in Lemma 4.3).
	avgLen float64
}

// NewModel precomputes the model's index-side statistics. units may be
// zero-valued to select DefaultUnits.
func NewModel(idx *mip.Index, units Units) *Model {
	if units == (Units{}) {
		units = DefaultUnits()
	}
	m := &Model{Idx: idx, U: units}
	n := idx.Space.NumAttrs()
	m.attrFrac = make([]float64, n)
	total := idx.ITTree.Size()
	if total > 0 {
		counts := make([]int, n)
		sumLen := 0
		for id := 0; id < total; id++ {
			items := idx.ITTree.Items(id)
			sumLen += len(items)
			seen := make(map[int]bool, len(items))
			for _, it := range items {
				a := idx.Space.AttrOf(it)
				if !seen[a] {
					seen[a] = true
					counts[a]++
				}
			}
		}
		for a := 0; a < n; a++ {
			m.attrFrac[a] = float64(counts[a]) / float64(total)
		}
		m.avgLen = float64(sumLen) / float64(total)
	}
	return m
}

// queryShape holds the per-query quantities shared by all six estimates,
// including the results of two constant-size probes (see probe): a
// sample of stored MIPs classified against the focal subset, and a
// sample of focal-subset records scanned for locally frequent items.
// The probes cost microseconds and replace pure-statistics guesses that
// cannot see subset homogeneity — focal subsets are selected by
// attribute values and are therefore far from uniform samples.
type queryShape struct {
	dqSize   int
	dqFrac   float64 // |D^Q| / m
	minCount int
	dqExt    []float64 // DQ_i_avg per dimension
	maskKeep float64   // P(candidate passes the item filter unchanged)
	words    float64   // tidset width in 64-bit words

	// MIP-sample fractions (of all stored MIPs).
	overlapFrac     float64 // box overlaps the region
	overlapSSFrac   float64 // overlaps and global support >= minCount
	containedFrac   float64 // box contained in the region
	containedSSFrac float64 // contained and global support >= minCount
	qualFrac        float64 // locally frequent (implies overlapping)

	// Record-sample results.
	freqItems    float64 // estimated count of locally frequent items
	pairDens     float64 // fraction of frequent-item pairs locally frequent
	sampleRows   int     // records sampled from D^Q
	distinctRows int     // distinct rows among the sampled records
}

func (mo *Model) shape(q *plans.Query) queryShape {
	idx := mo.Idx
	m := idx.Dataset.NumRecords()
	dq := idx.SubsetBitmap(q.Region)
	size := dq.Count()
	s := queryShape{
		dqSize: size,
		dqFrac: float64(size) / float64(m),
		dqExt:  make([]float64, q.Region.Dims()),
		words:  float64((m + 63) / 64),
	}
	s.minCount = charm.CountFor(q.MinSupport, size)
	for d := 0; d < q.Region.Dims(); d++ {
		s.dqExt[d] = q.Region.AvgExtent(d)
	}
	// Item-filter selectivity: a candidate survives unprojected when it
	// has no item in any excluded attribute (independence assumption).
	s.maskKeep = 1
	if q.ItemAttrs != nil {
		for a, keep := range q.ItemAttrs {
			if !keep {
				s.maskKeep *= 1 - mo.attrFrac[a]
			}
		}
	}
	mo.probe(q, dq, &s)
	return s
}

// probeMIPs and probeRecords bound the constant-size query-time probes.
const (
	probeMIPs    = 128
	probeRecords = 48
)

// probe runs the two query-time samples populating the shape.
func (mo *Model) probe(q *plans.Query, dq *bitset.Set, s *queryShape) {
	idx := mo.Idx
	n := idx.ITTree.Size()
	if n == 0 || s.dqSize == 0 {
		return
	}
	// Sample stored MIPs with a fixed stride for determinism.
	step := n / probeMIPs
	if step < 1 {
		step = 1
	}
	var sampled, overlap, overlapSS, contained, containedSS, qual int
	for id := 0; id < n; id += step {
		sampled++
		rel := q.Region.Relation(idx.Boxes[id])
		if rel == itemset.Disjoint {
			continue
		}
		passSS := idx.ITTree.Support(id) >= s.minCount
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
		if bitset.AndCount(idx.ITTree.Tids(id), dq) >= s.minCount {
			qual++
		}
	}
	fs := float64(sampled)
	s.overlapFrac = float64(overlap) / fs
	s.overlapSSFrac = float64(overlapSS) / fs
	s.containedFrac = float64(contained) / fs
	s.containedSSFrac = float64(containedSS) / fs
	s.qualFrac = float64(qual) / fs

	// Sample focal-subset records and count locally frequent items and
	// item pairs (restricted to item attributes). This feeds the ARM
	// plan's mining-lattice estimate.
	ids := sampleIDs(dq, probeRecords)
	if len(ids) == 0 {
		return
	}
	d := idx.Dataset
	nAttrs := d.NumAttrs()
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
			it := int32(idx.Space.ItemOf(a, d.Value(r, a)))
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
		// Pair co-occurrence among frequent items.
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

// sampleIDs draws up to k evenly spaced record ids from the bitmap.
func sampleIDs(dq *bitset.Set, k int) []int {
	total := dq.Count()
	if total == 0 {
		return nil
	}
	step := total / k
	if step < 1 {
		step = 1
	}
	out := make([]int, 0, k+1)
	i := 0
	dq.ForEach(func(id int) bool {
		if i%step == 0 {
			out = append(out, id)
		}
		i++
		return len(out) <= k
	})
	return out
}

// searchCost returns the expected R-tree traversal cost (Lemma 4.1 /
// Equation 3): per level, the expected number of visited nodes times
// the per-node classification work, with the supported filter's
// selectivity estimated from the per-level support distributions.
func (mo *Model) searchCost(s queryShape, supported bool) (cost float64) {
	idx := mo.Idx
	dims := idx.Space.NumAttrs()
	fanout := float64(idx.RTree.Fanout())
	for _, ls := range idx.LevelStats {
		// Expected fraction of level nodes whose box intersects D^Q:
		// Π_k min(1, DP_{j,k}avg + DQ_k_avg)  (Theodoridis–Sellis).
		p := 1.0
		for d := 0; d < dims; d++ {
			p *= math.Min(1, ls.AvgExtent[d]+s.dqExt[d])
		}
		visited := float64(ls.Nodes) * p
		if supported {
			visited *= rtree.FractionAtLeast(ls.Supports, s.minCount)
		}
		// Each visited node classifies its children boxes.
		cost += visited * fanout * float64(dims) * mo.U.BoxRel
	}
	return cost
}

// supportCheckCost is the cost of one record-level support check under
// the executor's check mode: a |D^Q|-record scan (the paper's COST(E)
// unit) or a whole-bitmap intersection, whichever CheckMode.Scans has
// the executor run.
func (mo *Model) supportCheckCost(s queryShape) float64 {
	scanCost := float64(s.dqSize) * mo.U.IDProbe
	bitmapCost := s.words * mo.U.WordOp
	if mo.Mode.Scans(s.dqSize, mo.Idx.Dataset.NumRecords()) {
		return scanCost
	}
	return bitmapCost
}

// verifyCost estimates the VERIFY operator over nQual qualified
// itemsets: level-wise rule generation with closure-oracle lookups.
// Low minconfidence admits more consequent levels, which the
// (2 - minconf) factor captures coarsely.
func (mo *Model) verifyCost(s queryShape, nQual float64, minConf float64) float64 {
	perLevel1 := mo.avgLen * (mo.U.GenOp + 2*mo.U.MapOp)
	missCost := mo.avgLen * 0.5 * mo.supportCheckCost(s) // some oracle misses
	depth := 2 - minConf
	return nQual * depth * (perLevel1 + missCost)
}

// Estimate computes the six plan estimates for a query. The returned
// slice is ordered as plans.Kinds().
func (mo *Model) Estimate(q *plans.Query) []Estimate {
	s := mo.shape(q)
	out := make([]Estimate, 0, 6)
	for _, k := range plans.Kinds() {
		out = append(out, mo.estimateOne(k, q, s))
	}
	return out
}

func (mo *Model) estimateOne(k plans.Kind, q *plans.Query, s queryShape) Estimate {
	e := Estimate{Plan: k}
	if s.dqSize == 0 {
		return e
	}
	nMIPs := float64(mo.Idx.ITTree.Size())
	switch k {
	case plans.SEV, plans.SVS, plans.SSEV, plans.SSVS, plans.SSEUV:
		supported := k == plans.SSEV || k == plans.SSVS || k == plans.SSEUV
		e.Search = mo.searchCost(s, supported)
		if supported {
			e.Candidates = nMIPs * s.overlapSSFrac
			e.Contained = nMIPs * s.containedSSFrac
		} else {
			e.Candidates = nMIPs * s.overlapFrac
			e.Contained = nMIPs * s.containedFrac
		}

		// Item filter applies to every candidate (map + scan, cheap);
		// candidates that survive need the record-level support check —
		// except, for SS-E-U-V, the contained ones (Lemma 4.5).
		checks := e.Candidates
		if k == plans.SSEUV {
			checks = math.Max(0, e.Candidates-e.Contained)
		}
		e.Eliminate = e.Candidates*2*mo.U.MapOp + checks*mo.supportCheckCost(s)
		// The separate ELIMINATE pass of the E-plans materializes the
		// intermediate candidate list; VS merges it away (selection
		// push-up) for a small constant saving per candidate.
		if k == plans.SEV || k == plans.SSEV || k == plans.SSEUV {
			e.Eliminate += e.Candidates * mo.U.MapOp
		}
		// Locally frequent MIPs qualify under every search variant (a
		// positive local support implies overlap, and local support is
		// bounded by global support, so the SS filter is lossless).
		e.Qualified = nMIPs * s.qualFrac * s.maskKeep
		e.Verify = mo.verifyCost(s, e.Qualified, q.MinConfidence)
		if mo.Shards > 1 {
			// Scatter-gather overhead: the focal-subset bitmap scatters
			// to K per-shard computations, and each record-level support
			// check fans into K partial counts that are summed back. The
			// counting work itself is conserved (the slices partition the
			// records), so only the dispatch bookkeeping is extra.
			kf := float64(mo.Shards)
			e.Search += kf * mo.U.MapOp
			e.Eliminate += checks * (kf - 1) * mo.U.MapOp
		}
		e.Total = e.Search + e.Eliminate + e.Verify

	case plans.ARM:
		idx := mo.Idx
		m := float64(idx.Dataset.NumRecords())
		n := float64(idx.Space.NumAttrs())
		// SELECT: one raw-table pass (m·n cell touches) plus building
		// the subset's vertical representation (|D^Q|·n inserts).
		e.Search = m*n*mo.U.IDProbe + float64(s.dqSize)*n*mo.U.IDProbe

		// Mining: CHARM over the extracted subset. The explored lattice
		// is estimated from the record sample: with f locally frequent
		// items and pair density d, the expected number of frequent
		// k-itemsets is roughly C(f,k)·d^C(k,2) (random-intersection
		// model); each lattice node costs one tidset intersection over
		// the subset's width.
		lattice := latticeSize(s.freqItems, s.pairDens)
		// Duplicate-heavy subsets (strong functional dependencies, as
		// in mushroom-like data) collapse CHARM's closed lattice: when
		// the record sample shows duplicate rows, bound the estimate by
		// the intersection structure of the distinct rows observed.
		if s.distinctRows < s.sampleRows {
			d := float64(s.distinctRows)
			cap := d*d*8 + s.freqItems
			if lattice > cap {
				lattice = cap
			}
		}
		dqWords := float64(s.dqSize)/64 + 1
		e.Mine = lattice * dqWords * mo.U.WordOp * 2

		e.Qualified = lattice / math.Max(1, s.freqItems) // closed ~ flattened
		e.Verify = mo.verifyCost(s, e.Qualified, q.MinConfidence)
		if mo.Shards > 1 {
			// Scattered SELECT: per-shard fan-out setup plus the gather
			// pass ORing K per-shard vertical representations together.
			kf := float64(mo.Shards)
			e.Search += kf*mo.U.MapOp + (kf-1)*float64(idx.Space.NumItems())*dqWords*mo.U.WordOp
		}
		e.Total = e.Search + e.Mine + e.Verify
	}
	return e
}

// latticeSize estimates Σ_k C(f,k)·d^C(k,2), the expected number of
// frequent itemsets over f frequent items with pair density d, capped to
// keep the estimate finite on degenerate (fully homogeneous) subsets.
func latticeSize(f, d float64) float64 {
	if f < 1 {
		return 0
	}
	if d <= 0 {
		return f
	}
	const cap = 1e10
	total := f
	logC := 0.0 // log C(f,k) accumulated incrementally
	for k := 2.0; k <= f; k++ {
		logC += math.Log((f - k + 1) / k)
		logTerm := logC + (k*(k-1)/2)*math.Log(d)
		term := math.Exp(logTerm)
		total += term
		if total > cap {
			return cap
		}
		if term < 1e-3 && k > 4 {
			break
		}
	}
	return total
}

// Choose returns the plan with the lowest estimated cost — the COLARM
// optimizer's decision — together with all six estimates.
func (mo *Model) Choose(q *plans.Query) (plans.Kind, []Estimate) {
	ests := mo.Estimate(q)
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Total < best.Total {
			best = e
		}
	}
	return best.Plan, ests
}
