package rtree

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// SortSliceBulk is Bulk as it was before the packed-key sort: every tile
// sorted by sort.Slice over the entries themselves, reading each box's
// Lo and Hi on every comparison. It is the reference the packed-key
// order is held to. The n entries carry the ids 0..n-1, each once; they
// are reordered in place.
func SortSliceBulk(entries []Entry, dims, fanout int) *Tree {
	sortSliceSTR(entries, dims, fanout, 0)
	perm := make([]uint32, len(entries))
	for i, e := range entries {
		perm[i] = uint32(e.ID)
	}
	boxes, sups := EntrySlabs(entries, dims)
	t := &Tree{dims: dims, fanout: fanout}
	t.pack(perm, boxes, sups)
	return t
}

// EntrySlabs lays the n entries, carrying the ids 0..n-1 in any order,
// out as Bulk's id-ordered input.
func EntrySlabs(entries []Entry, dims int) (boxes, sups []int32) {
	boxes, sups = make([]int32, len(entries)*2*dims), make([]int32, len(entries))
	for _, e := range entries {
		o := int(e.ID) * 2 * dims
		copy(boxes[o:o+dims], e.Box.Lo)
		copy(boxes[o+dims:o+2*dims], e.Box.Hi)
		sups[e.ID] = e.Support
	}
	return boxes, sups
}

// BulkEntries is Bulk over EntrySlabs(entries, dims).
func BulkEntries(entries []Entry, dims, fanout int) (*Tree, error) {
	boxes, sups := EntrySlabs(entries, dims)
	return Bulk(boxes, sups, dims, fanout)
}

func sortSliceSTR(entries []Entry, dims, fanout, dim int) {
	if len(entries) <= fanout || dim >= dims {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		ci := entries[i].Box.Lo[dim] + entries[i].Box.Hi[dim]
		cj := entries[j].Box.Lo[dim] + entries[j].Box.Hi[dim]
		if ci != cj {
			return ci < cj
		}
		return entries[i].ID < entries[j].ID
	})
	leaves := (len(entries) + fanout - 1) / fanout
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := max(((leaves+slabs-1)/slabs)*fanout, fanout)
	for i := 0; i < len(entries); i += slabSize {
		sortSliceSTR(entries[i:min(i+slabSize, len(entries))], dims, fanout, dim+1)
	}
}

// SameSlabs reports the first slab in which a and b differ: entry ids,
// supports and boxes, node boxes, max-support aggregates and child runs.
func SameSlabs(a, b *Tree) error {
	for _, s := range []struct {
		name string
		x, y any
	}{
		{"dims", a.dims, b.dims},
		{"fanout", a.fanout, b.fanout},
		{"root", a.froot, b.froot},
		{"entIDs", a.entIDs, b.entIDs},
		{"entSups", a.entSups, b.entSups},
		{"entBoxes", a.entBoxes, b.entBoxes},
		{"nboxes", a.nboxes, b.nboxes},
		{"fnodes", a.fnodes, b.fnodes},
	} {
		if !reflect.DeepEqual(s.x, s.y) {
			return fmt.Errorf("%s differ", s.name)
		}
	}
	return nil
}

// SlabSlack reports the first slab of t whose capacity exceeds its
// length: the spare room a packed tree should not hold.
func SlabSlack(t *Tree) error {
	for _, s := range []struct {
		name     string
		len, cap int
	}{
		{"fnodes", len(t.fnodes), cap(t.fnodes)},
		{"nboxes", len(t.nboxes), cap(t.nboxes)},
		{"entBoxes", len(t.entBoxes), cap(t.entBoxes)},
		{"entIDs", len(t.entIDs), cap(t.entIDs)},
		{"entSups", len(t.entSups), cap(t.entSups)},
	} {
		if s.cap != s.len {
			return fmt.Errorf("%s holds %d of %d allocated", s.name, s.len, s.cap)
		}
	}
	return nil
}
