// Package charm implements the CHARM algorithm of Zaki & Hsiao (SDM 2002)
// for mining closed frequent itemsets (CFIs) over vertical tidsets. COLARM
// runs CHARM once, offline, at the primary support threshold to populate
// the MIP-index (paper Section 3.2); the ARM baseline plan re-runs it at
// query time over the extracted focal subset.
package charm

import (
	"context"
	"fmt"
	"sort"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

// ClosedSet is one closed frequent itemset together with its tidset. The
// tidset always refers to record ids of the dataset the miner ran on. It
// is read-only: it may be one of the tidsets the miner was given (see
// MineTidsets) and is shared with every index layer built from the
// result.
type ClosedSet struct {
	Items   itemset.Set
	Tids    *bitset.Set
	Support int // == Tids.Count(), cached
}

// Result is the output of a mining run in a deterministic order (by
// itemset length, then by item ids).
type Result struct {
	Closed     []*ClosedSet
	NumRecords int
	MinCount   int
}

// Mine runs CHARM over the dataset at the given minimum support count
// (absolute number of records; use MineSupport for a fraction). The
// returned CFIs are deterministic for a given dataset.
func Mine(d *relation.Dataset, sp *itemset.Space, minCount int) (*Result, error) {
	tidsets := itemset.ItemTidsets(d, sp)
	return MineTidsets(tidsets, d.NumRecords(), minCount)
}

// MineSupport runs CHARM at a relative minimum support in (0, 1].
func MineSupport(d *relation.Dataset, sp *itemset.Space, minSupport float64) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, fmt.Errorf("charm: minimum support %v outside (0,1]", minSupport)
	}
	return Mine(d, sp, CountFor(minSupport, d.NumRecords()))
}

// CountFor converts a relative support threshold to the smallest absolute
// record count that satisfies it (ceiling, at least 1).
func CountFor(minSupport float64, numRecords int) int {
	c := int(minSupport * float64(numRecords))
	if float64(c) < minSupport*float64(numRecords) {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// MineTidsets runs CHARM directly over per-item tidsets. Items whose
// tidset is nil are skipped, which lets callers mine a restricted item
// universe (the ARM plan restricts to the query's item attributes).
//
// The input tidsets are only read, never copied: a closed itemset whose
// tidset is an input item's tidset returns that very *bitset.Set in
// ClosedSet.Tids. Callers therefore treat every ClosedSet.Tids as
// read-only and keep the input tidsets unchanged for as long as the
// result is in use.
func MineTidsets(tidsets []*bitset.Set, numRecords, minCount int) (*Result, error) {
	return MineTidsetsContext(context.Background(), tidsets, numRecords, minCount)
}

// MineTidsetsContext is MineTidsets under a context: CHARM-EXTEND polls
// the context between branch explorations, so a cancelled or timed-out
// context aborts the (potentially exponential) enumeration promptly and
// returns ctx.Err() instead of a result.
func MineTidsetsContext(ctx context.Context, tidsets []*bitset.Set, numRecords, minCount int) (*Result, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("charm: minimum support count %d < 1", minCount)
	}
	m := &miner{minCount: minCount, byHash: make(map[uint64][]*ClosedSet), ctx: ctx, done: ctx.Done()}

	var roots []*node
	for it, tids := range tidsets {
		if tids == nil {
			continue
		}
		if supp := tids.Count(); supp >= minCount {
			roots = append(roots, &node{items: itemset.Set{itemset.Item(it)}, tids: tids, supp: supp})
		}
	}
	sortNodes(roots)
	if err := m.extend(roots); err != nil {
		return nil, err
	}

	sort.Slice(m.closed, func(i, j int) bool {
		a, b := m.closed[i].Items, m.closed[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return &Result{Closed: m.closed, NumRecords: numRecords, MinCount: minCount}, nil
}

// node is one IT-tree node under exploration. supp caches tids.Count().
// owned marks a tidset the miner materialized itself, which goes back to
// the free list if the node is dropped without being emitted; a root's
// tidset belongs to the caller and is never recycled.
type node struct {
	items itemset.Set
	tids  *bitset.Set
	supp  int
	owned bool
}

type miner struct {
	minCount int
	closed   []*ClosedSet
	byHash   map[uint64][]*ClosedSet

	// free holds the tidsets of dropped nodes for IntersectInto to
	// recycle. An emitted tidset never enters it.
	free []*bitset.Set

	ctx   context.Context
	done  <-chan struct{} // ctx.Done(), nil for Background
	polls int
}

// cancelled polls the miner's context every few probes; nil done (a
// Background context) keeps the enumeration on the zero-cost path.
func (m *miner) cancelled() error {
	if m.done == nil {
		return nil
	}
	m.polls++
	if m.polls&63 != 0 {
		return nil
	}
	select {
	case <-m.done:
		return m.ctx.Err()
	default:
		return nil
	}
}

// intersect materializes t(Xi) ∩ t(Xj) into a recycled tidset when the
// free list has one.
func (m *miner) intersect(ni, nj *node) *bitset.Set {
	var dst *bitset.Set
	if k := len(m.free) - 1; k >= 0 {
		dst, m.free = m.free[k], m.free[:k]
	} else {
		dst = new(bitset.Set)
	}
	bitset.IntersectInto(dst, ni.tids, nj.tids)
	return dst
}

// release returns a dropped node's tidset to the free list.
func (m *miner) release(n *node) {
	if n.owned {
		m.free = append(m.free, n.tids)
	}
}

// sortNodes orders candidates by ascending support, the CHARM heuristic
// that maximizes the chance of tidset containment (properties 1-3),
// breaking ties by item id for determinism.
func sortNodes(ns []*node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].supp != ns[j].supp {
			return ns[i].supp < ns[j].supp
		}
		return ns[i].items[0] < ns[j].items[0]
	})
}

// extend is CHARM-EXTEND: it explores the IT-tree rooted at each node,
// applying the four tidset properties to skip non-closed branches. It
// aborts with ctx.Err() once the miner's context is done.
//
// Every sibling pair is counted first (AndCount, no allocation); the
// support alone decides properties 1 and 2 and the frequency test, so a
// tidset is materialized only for a pair that opens a branch.
func (m *miner) extend(nodes []*node) error {
	for i := 0; i < len(nodes); i++ {
		ni := nodes[i]
		if ni == nil {
			continue
		}
		if err := m.cancelled(); err != nil {
			return err
		}
		var children []*node
		for j := i + 1; j < len(nodes); j++ {
			nj := nodes[j]
			if nj == nil {
				continue
			}
			if err := m.cancelled(); err != nil {
				return err
			}
			supp := bitset.AndCount(ni.tids, nj.tids)
			iSub := supp == ni.supp // t(Xi) ⊆ t(Xj) ?
			jSub := supp == nj.supp // t(Xj) ⊆ t(Xi) ?
			switch {
			case iSub && jSub:
				// Property 1: identical tidsets. Absorb Xj into Xi (and
				// into every child generated so far, whose closures all
				// include Xj's items) and drop Xj's branch.
				ni.items = ni.items.Union(nj.items)
				for _, c := range children {
					c.items = c.items.Union(nj.items)
				}
				nodes[j] = nil
				m.release(nj)
			case iSub:
				// Property 2: t(Xi) ⊂ t(Xj). Xi's closure includes Xj's
				// items; Xj's own branch may still yield other CFIs.
				ni.items = ni.items.Union(nj.items)
				for _, c := range children {
					c.items = c.items.Union(nj.items)
				}
			case jSub:
				// Property 3: t(Xj) ⊂ t(Xi). Xj is not closed — its
				// closure includes Xi — so replace its branch by the
				// combined child under Xi, which takes over Xj's tidset:
				// the intersection is t(Xj), frequent because Xj is.
				nodes[j] = nil
				children = append(children, &node{items: ni.items.Union(nj.items), tids: nj.tids, supp: supp, owned: nj.owned})
			default:
				// Property 4: incomparable tidsets; both survive and the
				// combination opens a new branch if frequent.
				if supp >= m.minCount {
					children = append(children, &node{items: ni.items.Union(nj.items), tids: m.intersect(ni, nj), supp: supp, owned: true})
				}
			}
		}
		if len(children) > 0 {
			sortNodes(children)
			if err := m.extend(children); err != nil {
				return err
			}
		}
		m.emit(ni)
	}
	return nil
}

// emit records ni as closed unless an already-emitted CFI subsumes it
// (same tidset, superset items). Children are emitted before their parent
// by the recursion order, so subsuming supersets are already present.
func (m *miner) emit(n *node) {
	h := n.tids.Hash()
	for _, c := range m.byHash[h] {
		if c.Support == n.supp && n.items.SubsetOf(c.Items) && c.Tids.Equal(n.tids) {
			m.release(n)
			return // subsumed
		}
	}
	cs := &ClosedSet{Items: n.items, Tids: n.tids, Support: n.supp}
	m.closed = append(m.closed, cs)
	m.byHash[h] = append(m.byHash[h], cs)
}
