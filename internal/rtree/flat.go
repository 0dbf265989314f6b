// The slab layout of the R-tree, following the packed-node idiom of
// tile38's flat btree/rtree layouts: nodes live in one []fnode slab
// addressed by int32 index, node bounding boxes live inline in a single
// []int32 arena (Lo then Hi per node, so a traversal touches one cache
// line per node instead of three heap objects), interior children are
// runs in a child-index arena, and leaf entries are parallel
// box/id/support arenas in packing order, with an id → slot array for
// reads by id. Bulk packing appends level by level.
package rtree

import "colarm/internal/itemset"

// fnode is one packed node: off/count address a run in kidArena
// (interior) or in the entry arenas (leaf). The node's box lives at
// nboxes[i*2*dims : (i+1)*2*dims].
type fnode struct {
	off        int32
	count      int32
	maxSupport int32
	leaf       bool
}

// nodeBox returns a Box view aliasing node i's slot in the box arena.
func (t *Tree) nodeBox(i int32) itemset.Box {
	o := int(i) * 2 * t.dims
	d := t.dims
	return itemset.Box{Lo: t.nboxes[o : o+d : o+d], Hi: t.nboxes[o+d : o+2*d : o+2*d]}
}

// entryBox returns a Box view aliasing entry slot s in the entry arena.
func (t *Tree) entryBox(s int32) itemset.Box {
	o := int(s) * 2 * t.dims
	d := t.dims
	return itemset.Box{Lo: t.entBoxes[o : o+d : o+d], Hi: t.entBoxes[o+d : o+2*d : o+2*d]}
}

func (t *Tree) entryAt(s int32) Entry {
	return Entry{Box: t.entryBox(s), ID: t.entIDs[s], Support: t.entSups[s]}
}

// appendNode appends an empty node (sentinel empty box) and returns its
// index.
func (t *Tree) appendNode(leaf bool) int32 {
	i := int32(len(t.fnodes))
	t.fnodes = append(t.fnodes, fnode{leaf: leaf})
	for d := 0; d < t.dims; d++ {
		t.nboxes = append(t.nboxes, 1<<30)
	}
	for d := 0; d < t.dims; d++ {
		t.nboxes = append(t.nboxes, -1)
	}
	return i
}

// appendEntrySlot copies e into a fresh slot at the end of the entry
// arenas and returns the slot index.
func (t *Tree) appendEntrySlot(e Entry) int32 {
	s := int32(len(t.entIDs))
	t.entBoxes = append(t.entBoxes, e.Box.Lo...)
	t.entBoxes = append(t.entBoxes, e.Box.Hi...)
	t.entIDs = append(t.entIDs, e.ID)
	t.entSups = append(t.entSups, e.Support)
	return s
}

// pack bulk-loads the slabs from entries already in packing order.
// Each slab is allocated at its final size: ⌈n/f⌉ leaves, ⌈n/f²⌉ nodes
// above them and so on up to the root, and every node but the root is
// one child entry.
func (t *Tree) pack(entries []Entry) {
	n := len(entries)
	nodes := 1
	for w := (n + t.fanout - 1) / t.fanout; w > 1; w = (w + t.fanout - 1) / t.fanout {
		nodes += w
	}
	t.fnodes = make([]fnode, 0, nodes)
	t.nboxes = make([]int32, 0, nodes*2*t.dims)
	t.kidArena = make([]int32, 0, nodes-1)
	t.entBoxes = make([]int32, 0, n*2*t.dims)
	t.entIDs = make([]int32, 0, n)
	t.entSups = make([]int32, 0, n)
	t.slots = make([]int32, n)
	if n == 0 {
		t.froot = t.appendNode(true)
		return
	}
	for _, e := range entries {
		t.slots[e.ID] = t.appendEntrySlot(e)
	}
	// Pack leaves over contiguous entry runs.
	levelStart := int32(0)
	for i := 0; i < n; i += t.fanout {
		end := min(i+t.fanout, n)
		ni := t.appendNode(true)
		nd := &t.fnodes[ni]
		nd.off, nd.count = int32(i), int32(end-i)
		b := t.nodeBox(ni)
		for s := int32(i); s < int32(end); s++ {
			b.ExtendBox(t.entryBox(s))
			if t.entSups[s] > t.fnodes[ni].maxSupport {
				t.fnodes[ni].maxSupport = t.entSups[s]
			}
		}
	}
	// Pack upper levels until a single root remains. Each level's nodes
	// are contiguous in the slab, so child runs are consecutive indices.
	levelEnd := int32(len(t.fnodes))
	for levelEnd-levelStart > 1 {
		nextStart := levelEnd
		for i := levelStart; i < levelEnd; i += int32(t.fanout) {
			end := i + int32(t.fanout)
			if end > levelEnd {
				end = levelEnd
			}
			off := int32(len(t.kidArena))
			for c := i; c < end; c++ {
				t.kidArena = append(t.kidArena, c)
			}
			ni := t.appendNode(false)
			nd := &t.fnodes[ni]
			nd.off, nd.count = off, end-i
			b := t.nodeBox(ni)
			for c := i; c < end; c++ {
				b.ExtendBox(t.nodeBox(c))
				if t.fnodes[c].maxSupport > t.fnodes[ni].maxSupport {
					t.fnodes[ni].maxSupport = t.fnodes[c].maxSupport
				}
			}
		}
		levelStart, levelEnd = nextStart, int32(len(t.fnodes))
	}
	t.froot = levelStart
}

// kids returns node n's child run, aliasing kidArena.
func (t *Tree) kids(n int32) []int32 {
	nd := &t.fnodes[n]
	return t.kidArena[nd.off : nd.off+nd.count]
}
