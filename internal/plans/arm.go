package plans

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/obs"
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
	items, attrs, err := c.selectItems()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Record(obs.OpSelect, time.Since(t0), c.st.SubsetSize, c.st.SubsetSize, 1,
			fmt.Sprintf("attrs=%d", attrs))
	}
	return c.mineLocal(items)
}

// selectItems is ARM's SELECT (σ): the vertical representation of the
// focal subset, restricted to the item attributes, in D^Q's rank space —
// item i's vector in the Focal's layout, bitset.RankAnd(D^Q, t(i)) over
// the surface's item tidset, ⌈|D^Q|/64⌉ words, reused where the
// optimizer's sample already built it. An item whose count over the
// whole surface falls short of MinCount is skipped, and one whose local
// count then does is dropped, so only items that can be frequent in D^Q
// are returned, in attribute and value order. No record is read and no
// record-space tidset is built. It also returns the number of item
// attributes.
func (c *qctx) selectItems() ([]itemset.Item, int, error) {
	sp := c.ex.Space
	kept := c.sc.kept[:0]
	attrs := 0
	for a := 0; a < sp.NumAttrs(); a++ {
		if c.mask != nil && !c.mask[a] {
			continue
		}
		attrs++
		for val := 0; val < sp.Cardinality(a); val++ {
			it := sp.ItemOf(a, val)
			if c.s.Tidsets[it].Count() < c.f.MinCount {
				continue
			}
			if err := c.cancelled(); err != nil {
				return nil, 0, err
			}
			if c.f.vector(it) >= c.f.MinCount {
				kept = append(kept, it)
			}
		}
	}
	c.sc.kept = kept
	return kept, attrs, nil
}

// mineLocal is ARM's εAR over the items SELECT kept: CHARM over their
// vectors, then rule generation. No record-space tidset and no IT-tree
// is built: CHARM mines the vectors, and the rule generator's oracle
// counts over them.
func (c *qctx) mineLocal(items []itemset.Item) (*Result, error) {
	q, tr := c.q, c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}

	// εAR step 1: closed frequent itemset mining over the subset
	// (CHARM, as in the paper). The context threads into the miner so a
	// cancelled query aborts inside CHARM-EXTEND, the plan's dominant
	// cost on low-support queries. SELECT grew the layout last, so the
	// views stay valid.
	sc := c.sc
	vecs := reuse(sc.views, len(items))
	sc.views = vecs
	for k, it := range items {
		vecs[k] = c.f.vecs.view(it)
	}
	mined, err := charm.MineVectors(c.ctx, items, vecs, c.s.NumRecords, c.f.MinCount, &sc.mined)
	if err != nil {
		return nil, err
	}
	c.st.ARMFrequentItemsets = mined.Len()
	if tr != nil {
		tr.Record(obs.OpARM, time.Since(t0), c.st.SubsetSize, mined.Len(), 1,
			fmt.Sprintf("cfis=%d", mined.Len()))
		t0 = time.Now()
	}

	// εAR step 2: rule generation. The oracle only reads the layout, so
	// the per-itemset generation fans out across the query's workers
	// with no shared mutable state beyond the tallied call counter.
	var tally counterTally
	oracle := armOracle(c.f, &tally)
	quals := sc.closed[:0]
	for id := 0; id < mined.Len(); id++ {
		if len(mined.Items(id)) >= 2 {
			quals = append(quals, int32(id))
		}
	}
	sc.closed = quals
	c.st.Qualified = len(quals)
	used, err := c.generate(len(quals), func(i int, rs []rules.Rule, items []itemset.Item) ([]rules.Rule, []itemset.Item) {
		id := int(quals[i])
		return rules.Generate(rs, items, mined.Items(id), mined.Support(id), c.st.SubsetSize,
			q.MinConfidence, oracle, rules.Options{MaxConsequent: q.MaxConsequent})
	})
	if err != nil {
		return nil, err
	}
	tally.addTo(c.st)
	// CHARM's closed sets are distinct and a rule's X ∪ Y is the closed
	// set it was generated from, so the concatenation has no duplicates.
	out := c.gather(len(quals), nil)
	c.st.RulesEmitted = len(out)
	if tr != nil {
		tr.Record(obs.OpVerify, time.Since(t0), len(quals), len(out), used,
			fmt.Sprintf("oracle=%d misses=%d", c.st.OracleCalls, c.st.OracleMisses))
	}
	return &Result{Rules: out, Stats: *c.st}, nil
}

// armOracle is εAR's support oracle: every ask is counted over D^Q's
// layout, the popcount of the AND of the itemset's item vectors. Rule
// generation asks only about subsets of mined CFIs, whose items SELECT
// kept and so built vectors for, and every such subset is locally
// frequent, so nothing is a miss: ARM's OracleMisses is always 0.
func armOracle(f *Focal, tally *counterTally) func(itemset.Set) int {
	return func(x itemset.Set) int {
		atomic.AddInt64(&tally.oracleCalls, 1)
		return f.vecs.count(x)
	}
}
