// Package rtree implements an n-dimensional R-tree over integer
// coordinate boxes, the first layer of COLARM's MIP-index (paper Section
// 3.3). Leaf entries are the bounding boxes of closed frequent itemsets
// (MIPs) tagged with their global support counts; the SUPPORTED-SEARCH
// operator exploits a per-node max-support aggregate to prune subtrees
// that cannot satisfy the query's minimum support (Lemma 4.4).
//
// Trees are built once, by bulk packing (STR order, see build.go —
// following Kamel & Faloutsos' packed R-trees), into contiguous slabs
// (flat.go), and are immutable afterwards. The entry slab is the index's
// only copy of the MIP boxes: Box reads one by its CFI id.
package rtree

import (
	"fmt"

	"colarm/internal/itemset"
)

// DefaultFanout is the default maximum number of entries per node.
const DefaultFanout = 16

// Entry is one leaf record: the MIP bounding box of a closed frequent
// itemset, the itemset's id in the IT-tree, and its global support count.
type Entry struct {
	Box     itemset.Box
	ID      int32
	Support int32
}

// Tree is an n-dimensional packed R-tree. The zero value is not usable;
// create trees with Bulk.
type Tree struct {
	dims   int
	fanout int

	// The slabs (see flat.go).
	froot    int32
	fnodes   []fnode
	nboxes   []int32 // per-node boxes: dims Lo then dims Hi at i*2*dims
	entBoxes []int32 // per-entry boxes, same inline layout as nboxes
	entIDs   []int32
	entSups  []int32
	slots    []int32 // entry id -> its slot in the entry arenas
}

// Size returns the number of stored entries.
func (t *Tree) Size() int { return len(t.entIDs) }

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Box returns entry id's box, aliasing the entry slab (read-only).
func (t *Tree) Box(id int) itemset.Box { return t.entryBox(t.slots[id]) }

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
// then Contained as well). minCount < 0 disables support pruning. Box
// classification reads the packed arenas directly (RelationPacked) —
// constructing Box views per probe costs more than the classification
// itself on deep scans, so views are only materialized for emitted
// entries.
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
				rel = reg.RelationPacked(t.entBoxes, int(s)*stride, t.dims)
				if rel == itemset.Disjoint {
					continue
				}
			}
			st.EntriesEmitted++
			if !visit(t.entryAt(s), rel) {
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

// Validate checks structural invariants: node boxes cover children,
// max-support aggregates are correct, leaf depth is uniform, and node
// occupancy respects the fanout. Violations indicate construction bugs.
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
			b := itemset.NewBox(t.dims)
			var ms int32
			for s := nd.off; s < nd.off+nd.count; s++ {
				b.ExtendBox(t.entryBox(s))
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
