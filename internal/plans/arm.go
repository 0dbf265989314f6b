package plans

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/obs"
	"colarm/internal/pool"
	"colarm/internal/rules"
)

// runARM executes the traditional from-scratch mining plan (paper
// Section 4.6): SELECT builds the focal subset's vertical representation
// in D^Q's own rank space (selectItems), then the εAR operator runs
// CHARM over those vectors — restricted to the item attributes — and
// generates rules from the resulting locally closed frequent itemsets
// (mineLocal).
//
// ARM is the ground-truth baseline: it sees the focal subset directly,
// so unlike the MIP-index plans it is not limited to itemsets prestored
// at the primary support threshold. Its answer therefore covers the
// MIP plans' answer — every index-plan rule appears in ARM's output
// with the same antecedent, support and confidence (represented through
// its local closure, which may extend the consequent) — and can
// additionally contain locally frequent rules that fall below the
// primary support globally. This matches the paper's footnote-2
// contract: the POQM index answers only queries above the primary
// support; the from-scratch plan has no such floor.
func (ex *Executor) runARM(ctx context.Context, f *Focal, q *Query) (*Result, error) {
	c := ex.newCtx(ctx, f, q)
	if c.st.SubsetSize == 0 {
		return &Result{Stats: *c.st}, nil
	}
	tr := q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	vecs, attrs, err := c.selectItems()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Record(obs.OpSelect, time.Since(t0), c.st.SubsetSize, c.st.SubsetSize, 1,
			fmt.Sprintf("attrs=%d", attrs))
	}
	return c.mineLocal(&vecs)
}

// selectItems is ARM's SELECT (σ): the vertical representation of the
// focal subset, restricted to the item attributes, in D^Q's rank space —
// item i's vector is bitset.RankAnd(D^Q, t(i)) over the surface's item
// tidset, ⌈|D^Q|/64⌉ words in one arena: the layout ELIMINATE counts
// over (localVecs). An item whose count over the whole surface falls
// short of MinCount is skipped, and one whose RankAnd count then does is
// dropped, so only items that can be frequent in D^Q keep a vector. No
// record is read and no record-space tidset is built. It also returns
// the number of item attributes.
func (c *qctx) selectItems() (localVecs, int, error) {
	sp := c.ex.Space
	v := localVecs{nw: (c.f.Size + 63) / 64, off: make([]int32, sp.NumItems())}
	var cands []itemset.Item
	attrs := 0
	for it := range v.off {
		v.off[it] = -1
	}
	for a := 0; a < sp.NumAttrs(); a++ {
		if c.mask != nil && !c.mask[a] {
			continue
		}
		attrs++
		for val := 0; val < sp.Cardinality(a); val++ {
			if it := sp.ItemOf(a, val); c.s.Tidsets[it].Count() >= c.f.MinCount {
				cands = append(cands, it)
			}
		}
	}
	v.arena = make([]uint64, len(cands)*v.nw)
	v.items = cands[:0] // the kept items, a prefix of cands as it is read
	for _, it := range cands {
		if err := c.cancelled(); err != nil {
			return localVecs{}, 0, err
		}
		o := len(v.items) * v.nw
		if bitset.RankAnd(v.arena[o:o+v.nw], c.f.DQ, c.s.Tidsets[it]) >= c.f.MinCount {
			v.off[it] = int32(o)
			v.items = append(v.items, it)
		}
	}
	v.arena = v.arena[:len(v.items)*v.nw]
	return v, attrs, nil
}

// mineLocal is ARM's εAR over the vectors SELECT built: CHARM, then rule
// generation. No record-space tidset is built: CHARM mines the vectors,
// and ARM's IT-tree holds items and supports only.
func (c *qctx) mineLocal(v *localVecs) (*Result, error) {
	sp, q, tr := c.ex.Space, c.q, c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}

	// εAR step 1: closed frequent itemset mining over the subset
	// (CHARM, as in the paper). The context threads into the miner so a
	// cancelled query aborts inside CHARM-EXTEND, the plan's dominant
	// cost on low-support queries.
	mined, err := charm.MineVectors(c.ctx, v.items, v.arena, c.s.NumRecords, c.f.MinCount)
	if err != nil {
		return nil, err
	}
	c.st.ARMFrequentItemsets = len(mined.Closed)

	// εAR step 2: rule generation. Local supports of rule antecedents
	// resolve through the subset's own closure structure. The oracle is
	// memoless (armTree lookups are cheap), so the per-itemset
	// generation fans out across the query's workers with no shared
	// mutable state beyond the tallied counters; per-itemset call and
	// miss counts are deterministic, keeping the totals schedule-free.
	armTree := ittree.Build(mined, sp.NumItems())
	if tr != nil {
		tr.Record(obs.OpARM, time.Since(t0), c.st.SubsetSize, len(mined.Closed), 1,
			fmt.Sprintf("cfis=%d", len(mined.Closed)))
		t0 = time.Now()
	}
	var tally counterTally
	oracle := armOracle(armTree, v, &tally)
	quals := make([]*charm.ClosedSet, 0, len(mined.Closed))
	for _, cl := range mined.Closed {
		if len(cl.Items) >= 2 {
			quals = append(quals, cl)
		}
	}
	c.st.Qualified = len(quals)
	per := make([][]rules.Rule, len(quals))
	used, err := pool.ForCtx(c.ctx, len(quals), c.workers, func(i int) {
		per[i] = rules.Generate(quals[i].Items, quals[i].Support, c.st.SubsetSize,
			q.MinConfidence, oracle, rules.Options{MaxConsequent: q.MaxConsequent})
	})
	if err != nil {
		return nil, err
	}
	tally.addTo(c.st)
	// CHARM's closed sets are distinct and a rule's X ∪ Y is the closed
	// set it was generated from, so the concatenation has no duplicates.
	var out []rules.Rule
	if n := rulesIn(per); n > 0 {
		out = make([]rules.Rule, 0, n)
	}
	for _, rs := range per {
		out = append(out, rs...)
	}
	c.st.RulesEmitted = len(out)
	if tr != nil {
		tr.Record(obs.OpVerify, time.Since(t0), len(quals), len(out), used,
			fmt.Sprintf("oracle=%d misses=%d", c.st.OracleCalls, c.st.OracleMisses))
	}
	return &Result{Rules: out, Stats: *c.st}, nil
}

// armOracle is εAR's support oracle. ARM's IT-tree resolves an itemset
// through its local closure; one the tree does not cover (below MinCount
// in D^Q) is a miss, counted over SELECT's vectors. Rule generation asks
// only about subsets of mined CFIs, whose items all have vectors, so a
// miss names only such items.
func armOracle(tree *ittree.Tree, v *localVecs, tally *counterTally) func(itemset.Set) int {
	return func(x itemset.Set) int {
		atomic.AddInt64(&tally.oracleCalls, 1)
		if s := tree.GlobalSupport(x); s >= 0 {
			return s
		}
		atomic.AddInt64(&tally.oracleMisses, 1)
		return v.count(x)
	}
}
