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
// Section 4.6): SELECT extracts the focal subset's records from the raw
// table, then the εAR operator runs CHARM over the extracted subset —
// restricted to the item attributes — and generates rules from the
// resulting locally closed frequent itemsets.
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
	sp := ex.Space
	m := c.s.NumRecords
	n := sp.NumAttrs()
	// value resolves a record's raw value, reaching buffered rows past
	// the base table on a merged surface; the scan passes over ids
	// outside live, the tombstoned records (a surface never reuses or
	// renumbers ids).
	value, live := c.s.Value, c.s.Live
	tr := q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}

	// SELECT (σ): one pass over the raw table building the vertical
	// representation of the focal subset, restricted to the item
	// attributes. No index structure is consulted.
	localTids := make([]*bitset.Set, sp.NumItems())
	for a := 0; a < n; a++ {
		if !c.mask[a] {
			continue
		}
		for v := 0; v < sp.Cardinality(a); v++ {
			localTids[sp.ItemOf(a, v)] = bitset.New(m)
		}
	}
	if slices := c.s.Slices; len(slices) > 1 {
		// Scattered SELECT: each shard scans only the records it owns
		// (already live — tombstoned rows are outside every slice), in
		// parallel across the worker pool, into its own vertical
		// representation; the gather ORs the per-shard tidsets,
		// which reproduces the monolithic scan exactly because the
		// slices partition the live records. ARMRecordsScanned sums the
		// per-shard scan counts — the same total the monolithic loop
		// reports.
		k := len(slices)
		perTids := make([][]*bitset.Set, k)
		scanned := make([]int, k)
		_, err := pool.ForCtx(ctx, k, c.workers, func(s int) {
			tids := make([]*bitset.Set, sp.NumItems())
			for a := 0; a < n; a++ {
				if !c.mask[a] {
					continue
				}
				for v := 0; v < sp.Cardinality(a); v++ {
					tids[sp.ItemOf(a, v)] = bitset.New(m)
				}
			}
			pt := make([]int, n)
			polls := 0
			slices[s].Records.ForEach(func(r int) bool {
				if c.done != nil {
					polls++
					if polls%cancelPollStride == 0 {
						select {
						case <-c.done:
							return false
						default:
						}
					}
				}
				scanned[s]++
				for a := 0; a < n; a++ {
					pt[a] = value(r, a)
				}
				if !q.Region.ContainsPoint(pt) {
					return true
				}
				for a := 0; a < n; a++ {
					if c.mask[a] {
						tids[sp.ItemOf(a, pt[a])].Add(r)
					}
				}
				return true
			})
			perTids[s] = tids
		})
		if err == nil {
			err = ctx.Err() // a shard scan may have aborted mid-iteration
		}
		if err != nil {
			return nil, err
		}
		for _, sc := range scanned {
			c.st.ARMRecordsScanned += sc
		}
		for it := range localTids {
			if localTids[it] == nil {
				continue
			}
			for s := 0; s < k; s++ {
				localTids[it].Or(perTids[s][it])
			}
		}
	} else {
		point := make([]int, n)
		for r := 0; r < m; r++ {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
			if live != nil && !live.Contains(r) {
				continue
			}
			c.st.ARMRecordsScanned++
			for a := 0; a < n; a++ {
				point[a] = value(r, a)
			}
			if !q.Region.ContainsPoint(point) {
				continue
			}
			for a := 0; a < n; a++ {
				if !c.mask[a] {
					continue
				}
				localTids[sp.ItemOf(a, point[a])].Add(r)
			}
		}
	}

	if tr != nil {
		tr.Record(obs.OpSelect, time.Since(t0), m, c.st.SubsetSize, 1,
			fmt.Sprintf("scanned=%d", c.st.ARMRecordsScanned))
		t0 = time.Now()
	}

	// εAR step 1: closed frequent itemset mining over the subset
	// (CHARM, as in the paper). The context threads into the miner so a
	// cancelled query aborts inside CHARM-EXTEND, the plan's dominant
	// cost on low-support queries.
	mined, err := charm.MineTidsetsContext(ctx, localTids, m, c.f.MinCount)
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
		// Below the local threshold: count directly from the subset's
		// vertical representation.
		atomic.AddInt64(&tally.oracleMisses, 1)
		return countAll(localTids[x[0]], localTids, x[1:])
	}
	quals := make([]*charm.ClosedSet, 0, len(mined.Closed))
	for _, cl := range mined.Closed {
		if len(cl.Items) >= 2 {
			quals = append(quals, cl)
		}
	}
	c.st.Qualified = len(quals)
	per := make([][]rules.Rule, len(quals))
	used, err := pool.ForCtx(ctx, len(quals), c.workers, func(i int) {
		per[i] = rules.Generate(quals[i].Items, quals[i].Support, c.st.SubsetSize,
			q.MinConfidence, oracle, rules.Options{MaxConsequent: q.MaxConsequent})
	})
	if err != nil {
		return nil, err
	}
	tally.addTo(c.st)
	var out []rules.Rule
	for _, rs := range per {
		out = append(out, rs...)
	}
	out = rules.Dedupe(out)
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
