// The slab layout of the R-tree, following the packed-node idiom of
// tile38's flat btree/rtree layouts: nodes live in one []fnode slab
// addressed by int32 index, node bounding boxes live inline in a single
// []int32 arena (Lo then Hi per node, so a traversal touches one cache
// line per node instead of three heap objects), an interior node's
// children are a run of consecutive nodes, and leaf entries are parallel
// id/support/record arenas in packing order, with an id → slot array for
// reads by id. An entry's itemset is read from the adopted item arena.
// Bulk packing appends level by level.
package rtree

import "colarm/internal/itemset"

// fnode is one packed node: off/count address a run of child nodes
// (interior) or of entry slots (leaf). The node's box lives at
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

func (t *Tree) itemsOf(id int) itemset.Set {
	return t.items[t.itemOff[id]:t.itemOff[id+1]:t.itemOff[id+1]]
}

func (t *Tree) recAt(s int32) []int32 {
	return t.recs[t.recOff[s]:t.recOff[s+1]:t.recOff[s+1]]
}

// relationAt classifies slot s's entry against reg.
func (t *Tree) relationAt(reg *itemset.Region, s int32) itemset.Rel {
	return reg.RelationSparse(t.base, t.itemsOf(int(t.entIDs[s])), t.recAt(s))
}

func (b *Boxes) itemsOf(id int) itemset.Set {
	return b.Items[b.ItemOff[id]:b.ItemOff[id+1]:b.ItemOff[id+1]]
}

func (b *Boxes) recOf(id int) []int32 {
	return b.Recs[b.RecOff[id]:b.RecOff[id+1]:b.RecOff[id+1]]
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

// pack bulk-loads the slabs from b, taking the entries in the packing
// order perm, so each entry's record is copied once, into its slot. Each
// slab is allocated at its final size: ⌈n/f⌉ leaves, ⌈n/f²⌉ nodes above
// them and so on up to the root, and every node but the root is one
// child entry.
func (t *Tree) pack(perm []uint32, b *Boxes) {
	n := len(perm)
	nodes := 1
	for w := (n + t.fanout - 1) / t.fanout; w > 1; w = (w + t.fanout - 1) / t.fanout {
		nodes += w
	}
	t.fnodes = make([]fnode, 0, nodes)
	t.nboxes = make([]int32, 0, nodes*2*t.dims)
	t.entIDs = make([]int32, n)
	t.entSups = make([]int32, n)
	t.recs = make([]int32, 0, b.RecOff[n]-b.RecOff[0])
	t.recOff = make([]int32, 1, n+1)
	t.slots = make([]int32, n)
	for s, id := range perm {
		t.entIDs[s], t.entSups[s] = int32(id), b.Sups[id]
		t.recs = append(t.recs, b.recOf(int(id))...)
		t.recOff = append(t.recOff, int32(len(t.recs)))
		t.slots[id] = int32(s)
	}
	if n == 0 {
		t.froot = t.appendNode(true)
		return
	}
	// Pack leaves over contiguous entry runs, each entry's box expanded
	// into scratch.
	e := itemset.Box{Lo: make([]int32, t.dims), Hi: make([]int32, t.dims)}
	levelStart := int32(0)
	for i := 0; i < n; i += t.fanout {
		end := min(i+t.fanout, n)
		ni := t.appendNode(true)
		nd := &t.fnodes[ni]
		nd.off, nd.count = int32(i), int32(end-i)
		b := t.nodeBox(ni)
		for s := int32(i); s < int32(end); s++ {
			t.Expand(int(t.entIDs[s]), e.Lo, e.Hi)
			b.ExtendBox(e)
			if t.entSups[s] > t.fnodes[ni].maxSupport {
				t.fnodes[ni].maxSupport = t.entSups[s]
			}
		}
	}
	// Pack upper levels until a single root remains. Each level's nodes
	// are contiguous in the slab, so a node's children are the nodes
	// off..off+count-1.
	levelEnd := int32(len(t.fnodes))
	for levelEnd-levelStart > 1 {
		nextStart := levelEnd
		for i := levelStart; i < levelEnd; i += int32(t.fanout) {
			end := i + int32(t.fanout)
			if end > levelEnd {
				end = levelEnd
			}
			ni := t.appendNode(false)
			nd := &t.fnodes[ni]
			nd.off, nd.count = i, end-i
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
