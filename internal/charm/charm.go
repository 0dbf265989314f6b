// Package charm implements the CHARM algorithm of Zaki & Hsiao (SDM 2002)
// for mining closed frequent itemsets (CFIs). COLARM runs CHARM once,
// offline, at the primary support threshold to populate the MIP-index
// (paper Section 3.2); the ARM baseline plan re-runs it at query time
// over the extracted focal subset.
//
// One miner serves both. It works on fixed-width bit vectors, one per
// item and ⌈width/64⌉ words each: a sibling pair is counted by AND and
// popcount, and a vector is written only for a pair that opens a
// branch, into a per-run slab whose dropped vectors a free list hands
// out again. MineVectors mines vectors the caller built — ARM hands it
// views of the focal subset's rank-space vectors, ⌈|D^Q|/64⌉ words, and
// the merged view of internal/delta its frequent items' merged tidsets
// in one record-space arena — and returns CFIs without tidsets.
// MineTidsets, for the offline index build (mip.Build) and Mine, copies
// each frequent item's tidset into the dense word layout of its record
// space and gives every emitted CFI its tidset as a *bitset.Set.
package charm

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

// ClosedSet is one closed frequent itemset together with its tidset. The
// tidset always refers to record ids of the dataset the miner ran on,
// and is nil for a CFI MineVectors mined. It is read-only: it may be one
// of the tidsets the miner was given (see MineTidsets) and is shared
// with every index layer built from the result.
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

// MineTidsets runs CHARM directly over per-item tidsets, each of
// capacity numRecords. Items whose tidset is nil are skipped, which lets
// callers mine a restricted item universe.
//
// The miner copies each frequent item's tidset into ⌈numRecords/64⌉
// words (bitset.CopyWords) and mines those. An emitted CFI's tidset is
// materialized once, at emit time: a CFI whose vector is still an
// item's own holds that item's input *bitset.Set in ClosedSet.Tids
// (nothing is cloned); any other gets a new set in Optimize's encoding
// (bitset.FromWords). The inputs are only read. Callers therefore treat
// every ClosedSet.Tids as read-only and keep the input tidsets unchanged
// for as long as the result is in use.
func MineTidsets(tidsets []*bitset.Set, numRecords, minCount int) (*Result, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("charm: minimum support count %d < 1", minCount)
	}
	var roots []node
	for it, t := range tidsets {
		if t == nil {
			continue
		}
		if t.Len() != numRecords {
			return nil, fmt.Errorf("charm: item %d tidset has capacity %d, want %d records", it, t.Len(), numRecords)
		}
		if supp := t.Count(); supp >= minCount {
			roots = append(roots, node{items: itemset.Set{itemset.Item(it)}, supp: supp, root: it})
		}
	}
	m := newMiner(context.Background(), (numRecords+63)/64, minCount)
	m.tidset = func(root int, vec []uint64) *bitset.Set {
		if root >= 0 {
			return tidsets[root]
		}
		return bitset.FromWords(numRecords, vec)
	}
	arena := make([]uint64, len(roots)*m.nw)
	for k := range roots {
		v := arena[k*m.nw : (k+1)*m.nw : (k+1)*m.nw]
		bitset.CopyWords(v, tidsets[roots[k].root])
		roots[k].vec = v
	}
	return m.run(roots, numRecords)
}

// MineVectors runs CHARM over per-item bit vectors of one width:
// vecs[k] is items[k]'s vector, with no bit set past the width it
// encodes; the items are distinct. Vectors of unequal lengths are an
// error. An item's support is its vector's popcount. The vectors are
// only read; no tidset is materialized, so every ClosedSet.Tids is nil.
// numRecords is recorded as Result.NumRecords.
//
// ARM mines the focal subset this way: with views of the vectors in
// D^Q's rank space (bitset.RankAnd), bit r is the r-th record of D^Q, so
// every AND and popcount walks ⌈|D^Q|/64⌉ words whatever the dataset's
// size.
func MineVectors(ctx context.Context, items []itemset.Item, vecs [][]uint64, numRecords, minCount int) (*Result, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("charm: minimum support count %d < 1", minCount)
	}
	if len(vecs) != len(items) {
		return nil, fmt.Errorf("charm: %d vectors for %d items", len(vecs), len(items))
	}
	nw := 0
	if len(vecs) > 0 {
		nw = len(vecs[0])
	}
	var roots []node
	for k, it := range items {
		v := vecs[k]
		if len(v) != nw {
			return nil, fmt.Errorf("charm: item %d's vector has %d words, item %d's %d", it, len(v), items[0], nw)
		}
		if supp := popcount(v); supp >= minCount {
			roots = append(roots, node{items: itemset.Set{it}, vec: v[:nw:nw], supp: supp, root: int(it)})
		}
	}
	return newMiner(ctx, nw, minCount).run(roots, numRecords)
}

// node is one IT-tree node under exploration; supp caches vec's
// popcount. root is the input item whose vector vec is, unchanged, or
// -1 for a vector the miner wrote into its slab, which goes back to the
// free list once the node is dropped or emitted. A nil vec marks a node
// a sibling's branch absorbed.
type node struct {
	items itemset.Set
	vec   []uint64
	supp  int
	root  int
}

type miner struct {
	nw       int // words per vector
	minCount int

	// tidset materializes an emitted node's record-space tidset from its
	// root and vector before the vector is recycled: MineTidsets sets
	// it, MineVectors leaves it nil.
	tidset func(root int, vec []uint64) *bitset.Set

	closed []*ClosedSet
	next   []int32          // closed[k]'s predecessor in its hash chain, -1 none
	heads  map[uint64]int32 // vector hash → last closed index with it

	slab  []uint64   // unused words of the current slab chunk
	chunk int        // vectors per slab chunk; doubles up to maxChunk
	free  [][]uint64 // vectors of dropped and emitted nodes, for alloc

	// levels[d] is the reusable buffer that CHARM-EXTEND at recursion
	// depth d collects its children in.
	levels [][]node

	ctx   context.Context
	done  <-chan struct{} // ctx.Done(), nil for Background
	polls int
}

// maxChunk bounds a slab chunk at 256 vectors: the vectors live at once
// are about one branch's children per recursion level, so doubling to
// it covers the runs that need many without over-allocating small ones.
const maxChunk = 256

func newMiner(ctx context.Context, nw, minCount int) *miner {
	return &miner{nw: nw, minCount: minCount, heads: make(map[uint64]int32),
		chunk: 4, ctx: ctx, done: ctx.Done()}
}

// run explores the IT-tree from the frequent items and returns the CFIs
// in the deterministic result order.
func (m *miner) run(roots []node, numRecords int) (*Result, error) {
	sortNodes(roots)
	if err := m.extend(roots, 0); err != nil {
		return nil, err
	}
	slices.SortFunc(m.closed, func(x, y *ClosedSet) int {
		a, b := x.Items, y.Items
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	return &Result{Closed: m.closed, NumRecords: numRecords, MinCount: m.minCount}, nil
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

// alloc returns a vector of nw words for the miner to write, from the
// free list when it has one, else carved from the slab.
func (m *miner) alloc() []uint64 {
	if k := len(m.free) - 1; k >= 0 {
		v := m.free[k]
		m.free = m.free[:k]
		return v
	}
	if len(m.slab) < m.nw {
		m.slab = make([]uint64, m.chunk*m.nw)
		m.chunk = min(2*m.chunk, maxChunk)
	}
	v := m.slab[:m.nw:m.nw]
	m.slab = m.slab[m.nw:]
	return v
}

// release returns a node's vector to the free list if the miner wrote
// it; an input item's vector is never written.
func (m *miner) release(n *node) {
	if n.root < 0 {
		m.free = append(m.free, n.vec)
	}
}

// sortNodes orders candidates by ascending support, the CHARM heuristic
// that maximizes the chance of tidset containment (properties 1-3),
// breaking ties by item id for determinism.
func sortNodes(ns []node) {
	slices.SortFunc(ns, func(a, b node) int {
		if a.supp != b.supp {
			return a.supp - b.supp
		}
		return int(a.items[0]) - int(b.items[0])
	})
}

// extend is CHARM-EXTEND: it explores the IT-tree rooted at each node,
// applying the four tidset properties to skip non-closed branches. It
// aborts with ctx.Err() once the miner's context is done.
//
// Every sibling pair is counted first (AND and popcount, nothing
// written); the support alone decides properties 1 and 2 and the
// frequency test, so a vector is written only for a pair that opens a
// branch.
func (m *miner) extend(nodes []node, depth int) error {
	if depth == len(m.levels) {
		m.levels = append(m.levels, nil)
	}
	for i := range nodes {
		ni := &nodes[i]
		if ni.vec == nil {
			continue
		}
		if err := m.cancelled(); err != nil {
			return err
		}
		children := m.levels[depth][:0]
		for j := i + 1; j < len(nodes); j++ {
			nj := &nodes[j]
			if nj.vec == nil {
				continue
			}
			if err := m.cancelled(); err != nil {
				return err
			}
			supp := andCount(ni.vec, nj.vec)
			iSub := supp == ni.supp // t(Xi) ⊆ t(Xj) ?
			jSub := supp == nj.supp // t(Xj) ⊆ t(Xi) ?
			switch {
			case iSub && jSub:
				// Property 1: identical tidsets. Absorb Xj into Xi (and
				// into every child generated so far, whose closures all
				// include Xj's items) and drop Xj's branch.
				ni.items = ni.items.Union(nj.items)
				for k := range children {
					children[k].items = children[k].items.Union(nj.items)
				}
				m.release(nj)
				nj.vec = nil
			case iSub:
				// Property 2: t(Xi) ⊂ t(Xj). Xi's closure includes Xj's
				// items; Xj's own branch may still yield other CFIs.
				ni.items = ni.items.Union(nj.items)
				for k := range children {
					children[k].items = children[k].items.Union(nj.items)
				}
			case jSub:
				// Property 3: t(Xj) ⊂ t(Xi). Xj is not closed — its
				// closure includes Xi — so replace its branch by the
				// combined child under Xi, which takes over Xj's vector:
				// the intersection is t(Xj), frequent because Xj is.
				children = append(children, node{items: ni.items.Union(nj.items), vec: nj.vec, supp: supp, root: nj.root})
				nj.vec = nil
			default:
				// Property 4: incomparable tidsets; both survive and the
				// combination opens a new branch if frequent.
				if supp >= m.minCount {
					v := m.alloc()
					and(v, ni.vec, nj.vec)
					children = append(children, node{items: ni.items.Union(nj.items), vec: v, supp: supp, root: -1})
				}
			}
		}
		if len(children) > 0 {
			sortNodes(children)
			if err := m.extend(children, depth+1); err != nil {
				return err
			}
		}
		m.levels[depth] = children
		m.emit(ni)
	}
	return nil
}

// emit records n as closed unless an already-emitted CFI subsumes it,
// then releases n's vector. Children are emitted before their parent by
// the recursion order, so subsuming supersets are already present.
//
// Candidates come from a hash over n's words. A candidate with n's
// support whose items include n's has n's tidset — its tidset is a
// subset of n's, as t is anti-monotone, of the same size — so no words
// are compared.
func (m *miner) emit(n *node) {
	h := hashWords(n.vec)
	head, ok := m.heads[h]
	if ok {
		for k := head; k >= 0; k = m.next[k] {
			if c := m.closed[k]; c.Support == n.supp && n.items.SubsetOf(c.Items) {
				m.release(n)
				return // subsumed
			}
		}
	} else {
		head = -1
	}
	cs := &ClosedSet{Items: n.items, Support: n.supp}
	if m.tidset != nil {
		cs.Tids = m.tidset(n.root, n.vec)
	}
	m.release(n)
	m.heads[h] = int32(len(m.closed))
	m.next = append(m.next, head)
	m.closed = append(m.closed, cs)
}

// andCount returns the popcount of a AND b, which have equal lengths.
func andCount(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for k, x := range a {
		n += bits.OnesCount64(x & b[k])
	}
	return n
}

// and writes a AND b into dst; all three have equal lengths.
func and(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for k := range dst {
		dst[k] = a[k] & b[k]
	}
}

func popcount(v []uint64) int {
	n := 0
	for _, x := range v {
		n += bits.OnesCount64(x)
	}
	return n
}

// hashWords is FNV-1a over a vector's words.
func hashWords(v []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ x) * 1099511628211
	}
	return h
}
