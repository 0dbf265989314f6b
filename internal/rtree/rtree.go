// Package rtree implements an n-dimensional R-tree over integer
// coordinate boxes, the first layer of COLARM's MIP-index (paper Section
// 3.3). Leaf entries are the bounding boxes of closed frequent itemsets
// (MIPs) tagged with their global support counts; the SUPPORTED-SEARCH
// operator exploits a per-node max-support aggregate to prune subtrees
// that cannot satisfy the query's minimum support (Lemma 4.4).
//
// Trees are built once, by bulk packing (STR order, see build.go —
// following Kamel & Faloutsos' packed R-trees), into contiguous slabs
// (flat.go), and are immutable afterwards. Node boxes are dense. A leaf
// entry's box is sparse (itemset.AppendSparse): a point on each
// attribute of its itemset, read from the item arena the IT-tree holds,
// and otherwise the whole domain but on the attributes its record names.
// Relation classifies an entry by id and Expand writes its dense box.
package rtree

import (
	"fmt"
	"math/bits"
	"slices"

	"colarm/internal/itemset"
)

// DefaultFanout is the default maximum number of entries per node.
const DefaultFanout = 16

// Entry is one leaf record: a closed frequent itemset's id in the
// IT-tree and its global support count. Its box is read through the
// tree by id (Relation, Expand).
type Entry struct {
	ID      int32
	Support int32
}

// Boxes is Bulk's input, n = len(Sups) sparse boxes by id: entry id's
// box is that of the itemset Items[ItemOff[id]:ItemOff[id+1]] and the
// record Recs[RecOff[id]:RecOff[id+1]] (itemset.AppendSparse), over
// attributes of Cards[a] values whose items are numbered as in
// itemset.Space. The tree adopts the item arena and copies the records
// into packing order.
type Boxes struct {
	Cards   []int
	Items   []itemset.Item
	ItemOff []int32
	Recs    []int32
	RecOff  []int32
	Sups    []int32
}

// Tree is an n-dimensional packed R-tree. The zero value is not usable;
// create trees with Bulk.
type Tree struct {
	dims   int
	fanout int

	// The slabs (see flat.go).
	froot   int32
	fnodes  []fnode
	nboxes  []int32 // per-node boxes: dims Lo then dims Hi at i*2*dims
	entIDs  []int32 // per slot, in packing order
	entSups []int32
	recs    []int32 // per slot, the entry's sparse box record
	recOff  []int32 // slot s's record is recs[recOff[s]:recOff[s+1]]
	slots   []int32 // entry id -> its slot

	base    []int32        // attribute a's items are base[a]..base[a+1]-1
	items   []itemset.Item // Boxes' item arena, adopted: by id
	itemOff []int32
}

// Size returns the number of stored entries.
func (t *Tree) Size() int { return len(t.entIDs) }

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Relation classifies entry id's box against the region: the leaf test
// of Search, for readers that hold a CFI id.
func (t *Tree) Relation(reg *itemset.Region, id int) itemset.Rel {
	return t.relationAt(reg, t.slots[id])
}

// Expand writes entry id's dense box into lo and hi, dims values each.
func (t *Tree) Expand(id int, lo, hi []int32) {
	itemset.ExpandSparse(t.base, t.itemsOf(id), t.recAt(t.slots[id]), lo, hi)
}

// Box returns entry id's dense box, newly allocated: Expand for callers
// that keep the box.
func (t *Tree) Box(id int) itemset.Box {
	b := itemset.Box{Lo: make([]int32, t.dims), Hi: make([]int32, t.dims)}
	t.Expand(id, b.Lo, b.Hi)
	return b
}

// EntryBytes returns the bytes of the entry store's own slabs: the
// records, their offsets and the id → slot map. The items belong to the
// IT-tree.
func (t *Tree) EntryBytes() int { return 4 * (len(t.recs) + len(t.recOff) + len(t.slots)) }

// Fanout returns the maximum node capacity.
func (t *Tree) Fanout() int { return t.fanout }

// Height returns the number of levels; an empty tree is a single leaf
// root and reports 1, which keeps the cost formulae simple.
func (t *Tree) Height() int {
	h := 1
	for n := t.froot; !t.fnodes[n].leaf; n = t.fnodes[n].off {
		h++
	}
	return h
}

// SearchStats counts the work a traversal performed.
type SearchStats struct {
	NodesVisited   int
	EntriesChecked int
	EntriesEmitted int
}

// Visit receives each matching entry with its classification against the
// query region (Contained or Partial — Disjoint entries are never
// emitted). Returning false stops the traversal early.
type Visit func(e Entry, rel itemset.Rel) bool

// Search visits every entry whose box intersects the region. It
// implements the paper's SEARCH operator.
func (t *Tree) Search(reg *itemset.Region, visit Visit) SearchStats {
	var st SearchStats
	t.search(t.froot, reg, false, -1, visit, &st)
	return st
}

// SupportedSearch additionally prunes nodes and entries whose (max)
// support is below minCount — the paper's SUPPORTED-SEARCH operator over
// the supported R-tree. minCount is an absolute record count.
func (t *Tree) SupportedSearch(reg *itemset.Region, minCount int, visit Visit) SearchStats {
	var st SearchStats
	t.search(t.froot, reg, false, int32(minCount), visit, &st)
	return st
}

// search walks the tree. containedAbove short-circuits region tests once
// an ancestor node box was classified Contained (every descendant box is
// then Contained as well). minCount < 0 disables support pruning. Node
// boxes are classified in the packed arena (RelationPacked), leaf
// entries in their sparse form (RelationSparse).
func (t *Tree) search(ni int32, reg *itemset.Region, containedAbove bool, minCount int32, visit Visit, st *SearchStats) bool {
	st.NodesVisited++
	nd := &t.fnodes[ni]
	stride := 2 * t.dims
	if nd.leaf {
		for s := nd.off; s < nd.off+nd.count; s++ {
			st.EntriesChecked++
			if minCount >= 0 && t.entSups[s] < minCount {
				continue
			}
			rel := itemset.Contained
			if !containedAbove {
				rel = t.relationAt(reg, s)
				if rel == itemset.Disjoint {
					continue
				}
			}
			st.EntriesEmitted++
			if !visit(Entry{ID: t.entIDs[s], Support: t.entSups[s]}, rel) {
				return false
			}
		}
		return true
	}
	for c := nd.off; c < nd.off+nd.count; c++ {
		if minCount >= 0 && t.fnodes[c].maxSupport < minCount {
			continue
		}
		childContained := containedAbove
		if !childContained {
			switch reg.RelationPacked(t.nboxes, int(c)*stride, t.dims) {
			case itemset.Disjoint:
				continue
			case itemset.Contained:
				childContained = true
			}
		}
		if !t.search(c, reg, childContained, minCount, visit, st) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: entry boxes are well formed
// (validEntry), node boxes cover children, max-support aggregates are
// correct, leaf depth is uniform, and node occupancy respects the
// fanout. Violations indicate construction bugs.
func (t *Tree) Validate() error {
	leafDepth := -1
	var walk func(ni int32, depth int) (itemset.Box, int32, error)
	walk = func(ni int32, depth int) (itemset.Box, int32, error) {
		nd := &t.fnodes[ni]
		if nd.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return itemset.Box{}, 0, fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			if int(nd.count) > t.fanout {
				return itemset.Box{}, 0, fmt.Errorf("rtree: leaf with %d entries exceeds fanout %d", nd.count, t.fanout)
			}
			b, e := itemset.NewBox(t.dims), itemset.NewBox(t.dims)
			var ms int32
			for s := nd.off; s < nd.off+nd.count; s++ {
				if err := t.validEntry(int(t.entIDs[s]), s); err != nil {
					return itemset.Box{}, 0, err
				}
				t.Expand(int(t.entIDs[s]), e.Lo, e.Hi)
				b.ExtendBox(e)
				if t.entSups[s] > ms {
					ms = t.entSups[s]
				}
			}
			if nd.count > 0 && !t.nodeBox(ni).ContainsBox(b) {
				return itemset.Box{}, 0, fmt.Errorf("rtree: leaf box %v does not cover entries %v", t.nodeBox(ni), b)
			}
			if nd.maxSupport < ms {
				return itemset.Box{}, 0, fmt.Errorf("rtree: leaf maxSupport %d < entry max %d", nd.maxSupport, ms)
			}
			return t.nodeBox(ni), nd.maxSupport, nil
		}
		if nd.count == 0 {
			return itemset.Box{}, 0, fmt.Errorf("rtree: interior node with no children")
		}
		if int(nd.count) > t.fanout {
			return itemset.Box{}, 0, fmt.Errorf("rtree: interior node with %d children exceeds fanout %d", nd.count, t.fanout)
		}
		b := itemset.NewBox(t.dims)
		var ms int32
		for c := nd.off; c < nd.off+nd.count; c++ {
			cb, cms, err := walk(c, depth+1)
			if err != nil {
				return itemset.Box{}, 0, err
			}
			b.ExtendBox(cb)
			if cms > ms {
				ms = cms
			}
		}
		if !t.nodeBox(ni).ContainsBox(b) {
			return itemset.Box{}, 0, fmt.Errorf("rtree: node box %v does not cover children %v", t.nodeBox(ni), b)
		}
		if nd.maxSupport < ms {
			return itemset.Box{}, 0, fmt.Errorf("rtree: node maxSupport %d < children max %d", nd.maxSupport, ms)
		}
		return t.nodeBox(ni), nd.maxSupport, nil
	}
	_, _, err := walk(t.froot, 0)
	return err
}

// validEntry checks slot s's entry id against Boxes' rules: the slot
// map finds it, and its record, over its items, expands to a box inside
// the domain whose record AppendSparse writes back. Items out of order,
// out of range or two on one attribute fail too: the item mask would
// miss one, or its point would leave the domain.
func (t *Tree) validEntry(id int, s int32) error {
	if t.slots[id] != s {
		return fmt.Errorf("rtree: entry %d is in slot %d, its slot map says %d", id, s, t.slots[id])
	}
	items, rec, words := t.itemsOf(id), t.recAt(s), itemset.SparseWords(t.dims)
	ones := func(mask []int32) (n int) {
		for _, x := range mask {
			n += bits.OnesCount32(uint32(x))
		}
		return n
	}
	if len(rec) < words || ones(rec[:words]) != len(items) ||
		len(rec) > words && (len(rec) < 2*words || len(rec) != 2*words+2*ones(rec[words:2*words])) {
		return fmt.Errorf("rtree: entry %d's record %v does not fit its items %v", id, rec, items)
	}
	b := itemset.NewBox(t.dims)
	itemset.ExpandSparse(t.base, items, rec, b.Lo, b.Hi)
	for a := range b.Lo {
		if b.Lo[a] < 0 || b.Lo[a] > b.Hi[a] || b.Hi[a] >= t.base[a+1]-t.base[a] {
			return fmt.Errorf("rtree: entry %d's box %v leaves the domain on attribute %d", id, b, a)
		}
	}
	if want := itemset.AppendSparse(nil, t.base, items, b.Lo, b.Hi); !slices.Equal(rec, want) {
		return fmt.Errorf("rtree: entry %d's record %v, its box %v's is %v", id, rec, b, want)
	}
	return nil
}
