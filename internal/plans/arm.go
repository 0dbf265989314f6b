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
// (selectItems), then the εAR operator runs CHARM over it — restricted
// to the item attributes — and generates rules from the resulting
// locally closed frequent itemsets (mineLocal).
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
	localTids, attrs, err := c.selectItems()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Record(obs.OpSelect, time.Since(t0), c.st.SubsetSize, c.st.SubsetSize, 1,
			fmt.Sprintf("attrs=%d", attrs))
	}
	return c.mineLocal(localTids)
}

// selectItems is ARM's SELECT (σ): the vertical representation of the
// focal subset, restricted to the item attributes, read off the
// surface's per-item tidsets — item i's local tidset is D^Q ∩ t(i), one
// container AND per item. An item whose tidset cannot reach MinCount,
// over the whole surface or then inside D^Q (itemCount), is pruned before
// it is materialized and stays nil, which CHARM skips. No record is read.
// It also returns the number of item attributes.
func (c *qctx) selectItems() ([]*bitset.Set, int, error) {
	sp := c.ex.Space
	localTids := make([]*bitset.Set, sp.NumItems())
	attrs := 0
	for a := 0; a < sp.NumAttrs(); a++ {
		if c.mask != nil && !c.mask[a] {
			continue
		}
		attrs++
		for v := 0; v < sp.Cardinality(a); v++ {
			if err := c.cancelled(); err != nil {
				return nil, 0, err
			}
			it := sp.ItemOf(a, v)
			if n, _ := c.itemCount(it); n >= c.f.MinCount {
				localTids[it] = bitset.Intersect(c.f.DQ, c.s.Tidsets[it])
			}
		}
	}
	return localTids, attrs, nil
}

// mineLocal is ARM's εAR over the local tidsets SELECT built: CHARM,
// then rule generation.
func (c *qctx) mineLocal(localTids []*bitset.Set) (*Result, error) {
	sp, q, tr := c.ex.Space, c.q, c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}

	// εAR step 1: closed frequent itemset mining over the subset
	// (CHARM, as in the paper). The context threads into the miner so a
	// cancelled query aborts inside CHARM-EXTEND, the plan's dominant
	// cost on low-support queries.
	mined, err := charm.MineTidsetsContext(c.ctx, localTids, c.s.NumRecords, c.f.MinCount)
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
	oracle := func(x itemset.Set) int {
		atomic.AddInt64(&tally.oracleCalls, 1)
		if s := armTree.GlobalSupport(x); s >= 0 {
			return s
		}
		// Below the local threshold: count directly over D^Q and the
		// surface's item tidsets, which — unlike the local tidsets SELECT
		// pruned — exist for every item.
		atomic.AddInt64(&tally.oracleMisses, 1)
		return countAll(c.f.DQ, c.s.Tidsets, x)
	}
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

// countAll returns |base ∩ t(x₁) ∩ … ∩ t(x_k)| over the given per-item
// tidsets, ending in a count instead of a materialized set: no item is
// base.Count(), one item is a single AndCount with no allocation, and k
// items take one scratch set, k−2 in-place ANDs and a final AndCount.
func countAll(base *bitset.Set, tidsets []*bitset.Set, x itemset.Set) int {
	switch len(x) {
	case 0:
		return base.Count()
	case 1:
		return bitset.AndCount(base, tidsets[x[0]])
	}
	last := len(x) - 1
	acc := bitset.Intersect(base, tidsets[x[0]])
	for _, it := range x[1:last] {
		acc.And(tidsets[it])
	}
	return bitset.AndCount(acc, tidsets[x[last]])
}
