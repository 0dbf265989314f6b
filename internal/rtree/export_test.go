package rtree

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"colarm/internal/itemset"
)

// BoxEntry is a leaf entry with its dense box: the tests' form of an
// entry, which EntrySlabs lays out sparse.
type BoxEntry struct {
	Box     itemset.Box
	ID      int32
	Support int32
}

// SortSliceBulk is Bulk as it was before the packed-key sort: every tile
// sorted by sort.Slice over the entries themselves, reading each box's
// Lo and Hi on every comparison. It is the reference the packed-key
// order is held to. The n entries carry the ids 0..n-1, each once; they
// are reordered in place.
func SortSliceBulk(entries []BoxEntry, dims, fanout int) *Tree {
	sortSliceSTR(entries, dims, fanout, 0)
	perm := make([]uint32, len(entries))
	for i, e := range entries {
		perm[i] = uint32(e.ID)
	}
	b := EntrySlabs(entries, dims)
	t, err := Bulk(b, fanout)
	if err != nil {
		panic(err)
	}
	t.pack(perm, &b)
	return t
}

// EntrySlabs lays the n entries, carrying the ids 0..n-1 in any order,
// out as Bulk's input over the smallest domains that hold the boxes.
func EntrySlabs(entries []BoxEntry, dims int) Boxes {
	cards := make([]int, dims)
	for _, e := range entries {
		for d, hi := range e.Box.Hi {
			cards[d] = max(cards[d], int(hi)+1)
		}
	}
	return SlabsOver(entries, cards)
}

// SlabsOver lays the entries out as Bulk's input over domains of cards
// values: no items, so every axis a box does not span whole is in its
// record.
func SlabsOver(entries []BoxEntry, cards []int) Boxes {
	byID := make([]itemset.Box, len(entries))
	b := Boxes{Cards: cards, ItemOff: make([]int32, len(entries)+1),
		RecOff: make([]int32, 1, len(entries)+1), Sups: make([]int32, len(entries))}
	for _, e := range entries {
		byID[e.ID] = e.Box
		b.Sups[e.ID] = e.Support
	}
	for _, box := range byID {
		b.Recs = itemset.AppendSparse(b.Recs, Base(cards), nil, box.Lo, box.Hi)
		b.RecOff = append(b.RecOff, int32(len(b.Recs)))
	}
	return b
}

// StoredBoxes returns t's entries as Bulk's input, in id order: the
// sparse boxes t was packed from.
func StoredBoxes(t *Tree) Boxes {
	n := len(t.entIDs)
	b := Boxes{Cards: make([]int, t.dims), Items: t.items, ItemOff: t.itemOff,
		RecOff: make([]int32, 1, n+1), Sups: make([]int32, n)}
	for a := range b.Cards {
		b.Cards[a] = int(t.base[a+1] - t.base[a])
	}
	for id := range n {
		s := t.slots[id]
		b.Recs = append(b.Recs, t.recAt(s)...)
		b.RecOff = append(b.RecOff, int32(len(b.Recs)))
		b.Sups[id] = t.entSups[s]
	}
	return b
}

// BulkEntries is Bulk over EntrySlabs(entries, dims).
func BulkEntries(entries []BoxEntry, dims, fanout int) (*Tree, error) {
	return Bulk(EntrySlabs(entries, dims), fanout)
}

func sortSliceSTR(entries []BoxEntry, dims, fanout, dim int) {
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
		{"recs", a.recs, b.recs},
		{"recOff", a.recOff, b.recOff},
		{"slots", a.slots, b.slots},
		{"items", a.items, b.items},
		{"itemOff", a.itemOff, b.itemOff},
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
		{"entIDs", len(t.entIDs), cap(t.entIDs)},
		{"entSups", len(t.entSups), cap(t.entSups)},
		{"recs", len(t.recs), cap(t.recs)},
		{"recOff", len(t.recOff), cap(t.recOff)},
		{"slots", len(t.slots), cap(t.slots)},
	} {
		if s.cap != s.len {
			return fmt.Errorf("%s holds %d of %d allocated", s.name, s.len, s.cap)
		}
	}
	return nil
}
