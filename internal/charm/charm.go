// Package charm implements the CHARM algorithm of Zaki & Hsiao (SDM 2002)
// for mining closed frequent itemsets (CFIs). COLARM runs CHARM once,
// offline, at the primary support threshold to populate the MIP-index
// (paper Section 3.2); the ARM baseline plan re-runs it at query time
// over the extracted focal subset.
//
// One miner, MineVectors, serves every caller. It works on fixed-width
// bit vectors, one per item and ⌈width/64⌉ words each: a sibling pair
// is counted by AND and popcount, and a vector is written only for a
// pair that opens a branch, into a per-run slab whose dropped vectors a
// free list hands out again. Frequent lays a record space's frequent
// items' tidsets out in one word arena, which the offline index build
// (mip.Build), Mine and the merged view of internal/delta mine, and the
// box probes read again (mip.Assemble); ARM mines views of the focal
// subset's rank-space vectors, ⌈|D^Q|/64⌉ words. The Result is slabs
// indexed by CFI id — items and supports, no tidsets — which the
// IT-tree adopts as its own.
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

// ClosedSet is one closed frequent itemset together with its tidset:
// the brute-force oracle's output and the value ittree.Tree.Set reads
// off the slabs. The tidset refers to record ids of the dataset the
// miner ran on, and is nil in a tree that stores none (a merged view's).
// It is read-only.
type ClosedSet struct {
	Items   itemset.Set
	Tids    *bitset.Set
	Support int // == Tids.Count(), cached
}

// Result is the output of a mining run: CFIs 0..Len()-1 in a
// deterministic order (by itemset length, then by item ids), in slabs.
type Result struct {
	NumRecords int

	items    []itemset.Item // every CFI's items, concatenated in id order
	off      []int32        // len Len()+1; CFI i's items are items[off[i]:off[i+1]]
	supports []int32        // CFI i's support

	m *miner // the miner that ran, for a later MineVectors to reuse
}

// Len returns the number of CFIs.
func (r *Result) Len() int { return len(r.supports) }

// Items returns CFI i's itemset, aliasing the item arena (read-only).
func (r *Result) Items(i int) itemset.Set { return r.items[r.off[i]:r.off[i+1]:r.off[i+1]] }

// Support returns CFI i's support count.
func (r *Result) Support(i int) int { return int(r.supports[i]) }

// Arena returns the item arena and its offsets, Len()+1 of them: CFI
// i's items are items[off[i]:off[i+1]]. Both are read-only.
func (r *Result) Arena() (items []itemset.Item, off []int32) { return r.items, r.off }

// Mine runs CHARM over the dataset at the given minimum support count
// (absolute number of records; use MineSupport for a fraction). The
// returned CFIs are deterministic for a given dataset.
func Mine(d *relation.Dataset, sp *itemset.Space, minCount int) (*Result, error) {
	tidsets := itemset.ItemTidsets(d, sp)
	items, vecs, err := Frequent(tidsets, d.NumRecords(), minCount)
	if err != nil {
		return nil, err
	}
	return MineVectors(context.Background(), items, vecs, d.NumRecords(), minCount, nil)
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

// Frequent lays the tidsets of the items with at least minCount records
// out in one word arena, ⌈numRecords/64⌉ words per item in
// bitset.CopyWords's layout: vecs[k] is items[k]'s, the items ascending.
// Nil tidsets are skipped, so callers can mine a restricted item
// universe; every other one must have capacity numRecords.
func Frequent(tidsets []*bitset.Set, numRecords, minCount int) (items []itemset.Item, vecs [][]uint64, err error) {
	for it, t := range tidsets {
		if t == nil {
			continue
		}
		if t.Len() != numRecords {
			return nil, nil, fmt.Errorf("charm: item %d tidset has capacity %d, want %d records", it, t.Len(), numRecords)
		}
		if t.Count() >= minCount {
			items = append(items, itemset.Item(it))
		}
	}
	nw := (numRecords + 63) / 64
	arena := make([]uint64, len(items)*nw)
	vecs = make([][]uint64, len(items))
	for k, it := range items {
		vecs[k] = arena[k*nw : (k+1)*nw : (k+1)*nw]
		bitset.CopyWords(vecs[k], tidsets[it])
	}
	return items, vecs, nil
}

// MineVectors runs CHARM over per-item bit vectors of one width:
// vecs[k] is items[k]'s vector, with no bit set past the width it
// encodes; the items are distinct. Vectors of unequal lengths are an
// error. An item's support is its vector's popcount. The vectors are
// only read and no tidset is materialized. numRecords is recorded as
// Result.NumRecords.
//
// ARM mines the focal subset this way: with views of the vectors in
// D^Q's rank space (bitset.RankAnd), bit r is the r-th record of D^Q, so
// every AND and popcount walks ⌈|D^Q|/64⌉ words whatever the dataset's
// size.
//
// reuse, when non-nil, is a Result an earlier MineVectors call returned
// and whose CFIs the caller no longer reads: the run recycles that
// miner's vector slabs, hash heads, recursion buffers and CFI buffer and
// reuse's own slabs, and returns reuse itself. A run that fails leaves
// reuse unusable, and a miner whose slabs outgrew maxReusedWords is not
// kept.
func MineVectors(ctx context.Context, items []itemset.Item, vecs [][]uint64, numRecords, minCount int, reuse *Result) (*Result, error) {
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
	var m *miner
	if reuse != nil && reuse.m != nil {
		m = reuse.m
		m.reset(ctx, nw, minCount)
	} else {
		m = newMiner(ctx, nw, minCount)
	}
	roots := m.roots[:0]
	for k, it := range items {
		v := vecs[k]
		if len(v) != nw {
			return nil, fmt.Errorf("charm: item %d's vector has %d words, item %d's %d", it, len(v), items[0], nw)
		}
		if supp := popcount(v); supp >= minCount {
			roots = append(roots, node{items: m.union(0, itemset.Set{it}, nil), vec: v[:nw:nw], supp: supp})
		}
	}
	m.roots = roots
	res, err := m.run(roots, numRecords, reuse)
	if err != nil || reuse == nil {
		return res, err
	}
	reuse.m = nil
	if m.words() <= maxReusedWords {
		reuse.m = m
	}
	return reuse, nil
}

// maxReusedWords caps the slab words a miner keeps for a reused run: one
// exploding run must not leave its slabs pinned to a recycled Result.
const maxReusedWords = 512 << 10

// words is how many words the miner's slab chunks and item arenas hold,
// two items a word.
func (m *miner) words() int {
	n := cap(m.cfiItems) / 2
	for _, c := range m.chunks {
		n += len(c)
	}
	for _, set := range m.sets {
		n += cap(set) / 2
	}
	return n
}

// node is one IT-tree node under exploration; supp caches vec's
// popcount. written marks a vector the miner wrote into its slab, which
// goes back to the free list once the node is dropped or emitted; any
// other is an input item's. A nil vec marks a node a sibling's branch
// absorbed.
type node struct {
	items   itemset.Set
	vec     []uint64
	supp    int
	written bool
}

type miner struct {
	nw       int // words per vector
	minCount int

	closed      []ClosedSet      // the emitted CFIs, until run lays them out
	closedItems int              // how many items they hold
	cfiItems    []itemset.Item   // their items, closed[k].Items a view
	next        []int32          // closed[k]'s predecessor in its hash chain, -1 none
	heads       map[uint64]int32 // vector hash → last closed index with it

	slab   []uint64   // unused words of the current slab chunk
	chunks [][]uint64 // every chunk carved so far, kept for a reused run
	used   int        // chunks[:used] have been carved from in this run
	chunk  int        // vectors per new slab chunk; doubles up to maxChunk
	free   [][]uint64 // vectors of dropped and emitted nodes, for alloc

	roots []node // MineVectors' root buffer, kept for a reused run

	// levels[d] is the reusable buffer that CHARM-EXTEND at recursion
	// depth d collects its children in, and sets[d] the item arena the
	// itemsets of the nodes at depth d are written to (union): the roots'
	// for d = 0, else the children's of the node at depth d-1 being
	// extended, emptied when the next one starts.
	levels [][]node
	sets   [][]itemset.Item

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

// reset readies a miner that ran before for a new run at nw words per
// vector, keeping every buffer: its slab chunks are carved again from
// the first, whatever width they were carved at.
func (m *miner) reset(ctx context.Context, nw, minCount int) {
	m.nw, m.minCount = nw, minCount
	m.closed, m.next, m.closedItems, m.cfiItems = m.closed[:0], m.next[:0], 0, m.cfiItems[:0]
	for d := range m.sets {
		m.sets[d] = m.sets[d][:0]
	}
	clear(m.heads)
	m.slab, m.used, m.free = nil, 0, m.free[:0]
	m.ctx, m.done, m.polls = ctx, ctx.Done(), 0
}

// run explores the IT-tree from the frequent items and lays the CFIs out,
// in result order, into res's reused slabs, or a new Result's if res is nil.
func (m *miner) run(roots []node, numRecords int, res *Result) (*Result, error) {
	sortNodes(roots)
	if err := m.extend(roots, 0); err != nil {
		return nil, err
	}
	if res == nil {
		res = new(Result)
	}
	slices.SortFunc(m.closed, func(x, y ClosedSet) int {
		a, b := x.Items, y.Items
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	n := len(m.closed)
	res.NumRecords = numRecords
	res.items = slices.Grow(res.items[:0], m.closedItems)
	res.off = slices.Grow(res.off[:0], n+1)
	res.supports = slices.Grow(res.supports[:0], n)
	for _, c := range m.closed {
		res.off = append(res.off, int32(len(res.items)))
		res.items = append(res.items, c.Items...)
		res.supports = append(res.supports, int32(c.Support))
	}
	res.off = append(res.off, int32(m.closedItems))
	return res, nil
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
	for len(m.slab) < m.nw {
		if m.used == len(m.chunks) {
			m.chunks = append(m.chunks, make([]uint64, m.chunk*m.nw))
			m.chunk = min(2*m.chunk, maxChunk)
		}
		m.slab = m.chunks[m.used]
		m.used++
	}
	v := m.slab[:m.nw:m.nw]
	m.slab = m.slab[m.nw:]
	return v
}

// release returns a node's vector to the free list if the miner wrote
// it; an input item's vector is never written.
func (m *miner) release(n *node) {
	if n.written {
		m.free = append(m.free, n.vec)
	}
}

// union returns the sorted union of s and t written to the item arena of
// depth d. The arena only grows until it is emptied, so a view it handed
// out stays valid, even once a longer arena replaces it.
func (m *miner) union(d int, s, t itemset.Set) itemset.Set {
	for d >= len(m.sets) {
		m.sets = append(m.sets, nil)
	}
	out := slices.Grow(m.sets[d], len(s)+len(t))
	at := len(out)
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(append(out, s[i:]...), t[j:]...)
	m.sets[d] = out
	return out[at:len(out):len(out)]
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
		if depth+1 < len(m.sets) {
			m.sets[depth+1] = m.sets[depth+1][:0]
		}
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
				ni.items = m.union(depth, ni.items, nj.items)
				for k := range children {
					children[k].items = m.union(depth+1, children[k].items, nj.items)
				}
				m.release(nj)
				nj.vec = nil
			case iSub:
				// Property 2: t(Xi) ⊂ t(Xj). Xi's closure includes Xj's
				// items; Xj's own branch may still yield other CFIs.
				ni.items = m.union(depth, ni.items, nj.items)
				for k := range children {
					children[k].items = m.union(depth+1, children[k].items, nj.items)
				}
			case jSub:
				// Property 3: t(Xj) ⊂ t(Xi). Xj is not closed — its
				// closure includes Xi — so replace its branch by the
				// combined child under Xi, which takes over Xj's vector:
				// the intersection is t(Xj), frequent because Xj is.
				children = append(children, node{items: m.union(depth+1, ni.items, nj.items), vec: nj.vec, supp: supp, written: nj.written})
				nj.vec = nil
			default:
				// Property 4: incomparable tidsets; both survive and the
				// combination opens a new branch if frequent.
				if supp >= m.minCount {
					v := m.alloc()
					and(v, ni.vec, nj.vec)
					children = append(children, node{items: m.union(depth+1, ni.items, nj.items), vec: v, supp: supp, written: true})
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
			if c := &m.closed[k]; c.Support == n.supp && n.items.SubsetOf(c.Items) {
				m.release(n)
				return // subsumed
			}
		}
	} else {
		head = -1
	}
	at := len(m.cfiItems)
	m.cfiItems = append(m.cfiItems, n.items...)
	cs := ClosedSet{Items: m.cfiItems[at:len(m.cfiItems):len(m.cfiItems)], Support: n.supp}
	m.release(n)
	m.heads[h] = int32(len(m.closed))
	m.next = append(m.next, head)
	m.closed = append(m.closed, cs)
	m.closedItems += len(cs.Items)
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
