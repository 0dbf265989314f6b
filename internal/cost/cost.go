// Package cost implements COLARM's cost model and cost-based optimizer
// (paper Section 4, Equations 1–6, and the plan-selection study of
// Section 5.1). For each of the six mining plans the model produces a
// constant-time cost estimate from
//
//   - index statistics precomputed at build time: per-attribute CFI
//     participation fractions and the average CFI length;
//   - the request's focal subset (plans.Focal): its size |D^Q|, its
//     support-count threshold, its bitmap and the surface it was
//     selected from, which the two query-time probes sample and whose
//     packed R-tree's per-level node counts, average extents and support
//     distributions (Table 3's N_j and DP_{j,i}avg) price SEARCH;
//   - the query parameters: the per-dimension extents DQ_i_avg,
//     minsupport and minconfidence;
//   - constant unit costs for the primitive operations the operators
//     are built from (tidset word operations, box relation tests, hash
//     lookups, rule-generation steps).
//
// The optimizer simply evaluates the six closed-form estimates and picks
// the argmin — the paper's COLARM plan selection.
package cost

import (
	"math"
	"math/bits"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/rtree"
)

// Units are primitive operation costs in nanoseconds. The facade exports
// the type as colarm.UnitCosts and the serving layer marshals it as it
// is, so the tags are the wire names.
type Units struct {
	// WordOp is the cost of one 64-bit word step of a tidset
	// intersection (the unit of ELIMINATE/VERIFY record-level checks).
	WordOp float64 `json:"wordOp"`
	// BoxRel is the per-dimension cost of classifying one box against
	// the query region (the unit of R-tree traversal).
	BoxRel float64 `json:"boxRel"`
	// IDProbe is the cost of probing one record id against a tidset
	// (the unit of a record-level check over a small focal subset).
	IDProbe float64 `json:"idProbe"`
	// MapOp is the cost of one hash-map probe (closure caches, dedup).
	MapOp float64 `json:"mapOp"`
	// GenOp is the bookkeeping cost of one rule-generation step.
	GenOp float64 `json:"genOp"`
}

// UnitCosts returns the one set of unit costs every estimate is priced
// with, the same on every machine. They reflect typical modern hardware
// ratios for the flat slab layout's primitives: packed-arena box
// classification and open-addressed integer hashing, which are markedly
// cheaper than the pointer layout's Box views and string-keyed maps
// they replaced.
func UnitCosts() Units {
	return Units{WordOp: 0.6, BoxRel: 2.0, IDProbe: 1.5, MapOp: 8, GenOp: 16}
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

// Model evaluates the six plan estimates for the focal subsets of one
// engine's requests. Everything a request selected — the subset's size,
// bitmap and support-count threshold, and the surface it was selected
// from with its R-tree statistics — comes with the request's
// plans.Focal; the model itself holds only aggregates computed once from
// the index as built, and prices them with UnitCosts.
type Model struct {
	u Units

	// sp maps attribute values to items for every surface of the engine.
	sp *itemset.Space
	// attrFrac[a] is the fraction of stored CFIs containing an item of
	// attribute a — the selectivity of the item-attribute filter.
	attrFrac []float64
	// avgLen is the mean stored CFI length (C_I in Lemma 4.3).
	avgLen float64
}

// NewModel precomputes the model's index-side statistics.
func NewModel(idx *mip.Index) *Model {
	m := &Model{u: UnitCosts(), sp: idx.Space}
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
	f         *plans.Focal
	dqExt     []float64 // DQ_i_avg per dimension
	maskKeep  float64   // P(candidate passes the item filter unchanged)
	itemAttrs float64   // attributes allowed in rule bodies

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

func (mo *Model) shape(f *plans.Focal, q *plans.Query) queryShape {
	s := queryShape{
		f:         f,
		dqExt:     make([]float64, q.Region.Dims()),
		maskKeep:  1,
		itemAttrs: float64(q.Region.Dims()),
	}
	for d := 0; d < q.Region.Dims(); d++ {
		s.dqExt[d] = q.Region.AvgExtent(d)
	}
	// Item-filter selectivity: a candidate survives unprojected when it
	// has no item in any excluded attribute (independence assumption).
	if q.ItemAttrs != nil {
		for a, keep := range q.ItemAttrs {
			if !keep {
				s.maskKeep *= 1 - mo.attrFrac[a]
				s.itemAttrs--
			}
		}
	}
	mo.probe(q, &s)
	return s
}

// probeMIPs and probeRecords bound the constant-size query-time probes.
const (
	probeMIPs    = 128
	probeRecords = 48
)

// probe runs the two query-time samples populating the shape: stored
// MIPs of the focal subset's surface, each counted inside the subset
// over its vertical layout (Focal.Reaches), and records of the subset
// itself.
func (mo *Model) probe(q *plans.Query, s *queryShape) {
	f, sf := s.f, s.f.Surface
	n := sf.Tree.Size()
	if n == 0 || f.Size == 0 {
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
		passSS := sf.Tree.Support(id) >= f.MinCount
		rel := sf.RTree.Relation(q.Region, id)
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
		// Local support is at most global support, so only a CFI that
		// passes the supported filter can be locally frequent. The count
		// runs over D^Q's layout, whose vectors the chosen plan reuses.
		if passSS && f.Reaches(sf.Tree.Items(id)) {
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
	// plan's mining-lattice estimate. Bit r of held[it] says sampled
	// record r holds item it; there are at most 64 sampled records (see
	// sampleIDs), so an item's count is a popcount and a pair's the
	// popcount of an AND. The record at the lowest set bit of a mask is
	// the one that counts it, so every item, pair and distinct row is
	// counted once.
	ids := sampleIDs(f.DQ, probeRecords)
	if len(ids) == 0 {
		return
	}
	mask := q.ItemAttrs
	var kept []int // the attributes rows are made of
	for a := 0; a < q.Region.Dims(); a++ {
		if mask == nil || mask[a] {
			kept = append(kept, a)
		}
	}
	// Attribute by attribute, so the masks written are one attribute's
	// items at a time.
	width := len(kept)
	// Both come from the request's scratch; held is all zero, and the
	// probe clears the words it sets before it returns.
	held, items := f.ProbeBuffers(mo.sp.NumItems(), len(ids)*width) // row r is items[r*width:(r+1)*width]
	for k, a := range kept {
		for r, rec := range ids {
			it := mo.sp.ItemOf(a, sf.Value(rec, a))
			held[it] |= 1 << r
			items[r*width+k] = int32(it)
		}
	}
	row := func(r int) []int32 { return items[r*width : (r+1)*width] }
	need := int(math.Ceil(q.MinSupport * float64(len(ids))))
	if need < 1 {
		need = 1
	}
	// A row holding every item of row r equals row r, so row r is the
	// first of its kind when no earlier row holds all its items.
	freq := 0
	for r := range ids {
		same := ^uint64(0)
		for _, it := range row(r) {
			same &= held[it]
			if bits.TrailingZeros64(held[it]) == r && bits.OnesCount64(held[it]) >= need {
				freq++
			}
		}
		if bits.TrailingZeros64(same) == r {
			s.distinctRows++
		}
	}
	s.sampleRows = len(ids)
	s.freqItems = float64(freq)
	if freq >= 2 {
		// Pair co-occurrence among frequent items.
		freqPairs := 0
		var fr []int32
		for r := range ids {
			fr = fr[:0]
			for _, it := range row(r) {
				if bits.OnesCount64(held[it]) >= need {
					fr = append(fr, it)
				}
			}
			for i := 0; i < len(fr); i++ {
				for j := i + 1; j < len(fr); j++ {
					both := held[fr[i]] & held[fr[j]]
					if bits.TrailingZeros64(both) == r && bits.OnesCount64(both) >= need {
						freqPairs++
					}
				}
			}
		}
		total := float64(freq) * float64(freq-1) / 2
		s.pairDens = float64(freqPairs) / total
	}
	for _, it := range items {
		held[it] = 0
	}
}

// sampleIDs draws evenly spaced record ids from the bitmap: every
// ⌊|dq|/k⌋-th id from the first, stopping after k+1 of them, so it
// returns up to k+1 ids — 49 at probeRecords, within the 64 bits of the
// record probe's per-item masks.
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

// searchCost returns the expected (SUPPORTED-)SEARCH cost: the
// traversal cost of Lemma 4.1 / Equation 3 over the surface's packed
// R-tree. Per level, the expected number of visited nodes times the
// per-node classification work, with the supported filter's selectivity
// estimated from the per-level support distributions.
func (mo *Model) searchCost(s queryShape, supported bool) (cost float64) {
	dims := len(s.dqExt)
	sf := s.f.Surface
	fanout := float64(sf.RTree.Fanout())
	for _, ls := range sf.Levels {
		// Expected fraction of level nodes whose box intersects D^Q:
		// Π_k min(1, DP_{j,k}avg + DQ_k_avg)  (Theodoridis–Sellis).
		p := 1.0
		for d := 0; d < dims; d++ {
			p *= math.Min(1, ls.AvgExtent[d]+s.dqExt[d])
		}
		visited := float64(ls.Nodes) * p
		if supported {
			visited *= rtree.FractionAtLeast(ls.Supports, s.f.MinCount)
		}
		// Each visited node classifies its children boxes.
		cost += visited * fanout * float64(dims) * mo.u.BoxRel
	}
	return cost
}

// supportCheckCost is the price of one record-level support check: a
// |D^Q|-record scan (the paper's COST(E) unit) when |D^Q| <= m/32, else
// a whole-bitmap intersection of ⌈m/64⌉ words — a scan touches one word
// per subset record, an intersection every word of the universe once.
// It prices only: ELIMINATE's checks and VERIFY's closure misses both
// AND ⌈|D^Q|/64⌉-word rank-space vectors, so their estimates run high
// until the unit costs are refit.
func (mo *Model) supportCheckCost(s queryShape) float64 {
	if s.f.Size <= s.f.Surface.NumRecords/32 {
		return float64(s.f.Size) * mo.u.IDProbe
	}
	return float64((s.f.Surface.NumRecords+63)/64) * mo.u.WordOp
}

// verifyCost estimates the VERIFY operator over nQual qualified
// itemsets: level-wise rule generation with closure-oracle lookups.
// Low minconfidence admits more consequent levels, which the
// (2 - minconf) factor captures coarsely.
func (mo *Model) verifyCost(s queryShape, nQual float64, minConf float64) float64 {
	perLevel1 := mo.avgLen * (mo.u.GenOp + 2*mo.u.MapOp)
	missCost := mo.avgLen * 0.5 * mo.supportCheckCost(s) // some oracle misses
	depth := 2 - minConf
	return nQual * depth * (perLevel1 + missCost)
}

// Estimate computes the six plan estimates for a query over the focal
// subset its request resolved (Executor.Focus). The MIP sample counts
// over f's vertical layout and grows it, so f serves one request at a
// time, and the vectors the sample builds are the ones the plan the
// request runs reads. The returned slice is ordered as plans.Kinds().
func (mo *Model) Estimate(f *plans.Focal, q *plans.Query) []Estimate {
	s := mo.shape(f, q)
	out := make([]Estimate, 0, 6)
	for _, k := range plans.Kinds() {
		out = append(out, mo.estimateOne(k, q, s))
	}
	return out
}

func (mo *Model) estimateOne(k plans.Kind, q *plans.Query, s queryShape) Estimate {
	e := Estimate{Plan: k}
	if s.f.Size == 0 {
		return e
	}
	nMIPs := float64(s.f.Surface.Tree.Size())
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
		e.Eliminate = e.Candidates*2*mo.u.MapOp + checks*mo.supportCheckCost(s)
		// The separate ELIMINATE pass of the E-plans materializes the
		// intermediate candidate list; VS merges it away (selection
		// push-up) for a small constant saving per candidate.
		if k == plans.SEV || k == plans.SSEV || k == plans.SSEUV {
			e.Eliminate += e.Candidates * mo.u.MapOp
		}
		// Locally frequent MIPs qualify under every search variant (a
		// positive local support implies overlap, and local support is
		// bounded by global support, so the SS filter is lossless).
		e.Qualified = nMIPs * s.qualFrac * s.maskKeep
		e.Verify = mo.verifyCost(s, e.Qualified, q.MinConfidence)
		e.Total = e.Search + e.Eliminate + e.Verify

	case plans.ARM:
		// SELECT: the subset's vertical representation, one value lookup
		// and tidset insert per record of D^Q and item attribute.
		e.Search = float64(s.f.Size) * s.itemAttrs * mo.u.IDProbe

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
		dqWords := float64(s.f.Size)/64 + 1
		e.Mine = lattice * dqWords * mo.u.WordOp * 2

		e.Qualified = lattice / math.Max(1, s.freqItems) // closed ~ flattened
		e.Verify = mo.verifyCost(s, e.Qualified, q.MinConfidence)
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
func (mo *Model) Choose(f *plans.Focal, q *plans.Query) (plans.Kind, []Estimate) {
	ests := mo.Estimate(f, q)
	best := ests[0]
	for _, e := range ests[1:] {
		if e.Total < best.Total {
			best = e
		}
	}
	return best.Plan, ests
}
