package mip

import (
	"fmt"

	"colarm/internal/itemset"
)

// BoxDomainError reports a MIP box outside its domain. The box tests
// (itemset.Region.Relation) require 0 <= Lo[d] <= Hi[d] < card(d) on
// every dimension d: they skip the dimensions a region leaves
// unrestricted, so a box past its domain there would read as Contained
// and SS-E-U-V would take its global support as the local one.
type BoxDomainError struct {
	CFI, Dim int
	Lo, Hi   int32
	Card     int
}

func (e *BoxDomainError) Error() string {
	return fmt.Sprintf("mip: box of CFI %d spans [%d..%d] on dimension %d, outside its domain [0..%d)",
		e.CFI, e.Lo, e.Hi, e.Dim, e.Card)
}

// Validate cross-checks the index layers: the R-tree must hold one entry
// per CFI, every CFI box must lie inside the domain (a *BoxDomainError
// otherwise), be a point on exactly the attributes of its itemset —
// CHARM's closure, which lets the R-tree store no other point — and
// cover its supporting records, the R-tree must be structurally valid,
// and the IT-tree must resolve its own itemsets. The index tests hold
// built and loaded indexes to it.
func (x *Index) Validate() error {
	if x.RTree.Size() != x.ITTree.Size() {
		return fmt.Errorf("mip: R-tree has %d entries, IT-tree %d", x.RTree.Size(), x.ITTree.Size())
	}
	n := x.Dataset.NumAttrs()
	box := itemset.NewBox(n)
	item := make([]bool, n)
	for id := 0; id < x.ITTree.Size(); id++ {
		x.RTree.Expand(id, box.Lo, box.Hi)
		for d, c := range x.Cards {
			if lo, hi := box.Lo[d], box.Hi[d]; lo < 0 || lo > hi || int(hi) >= c {
				return &BoxDomainError{CFI: id, Dim: d, Lo: lo, Hi: hi, Card: c}
			}
		}
		clear(item)
		for _, it := range x.ITTree.Items(id) {
			item[x.Space.AttrOf(it)] = true
		}
		for d := range item {
			if point := box.Lo[d] == box.Hi[d]; point != item[d] {
				return fmt.Errorf("mip: box of CFI %d is %v on dimension %d, which its itemset %v does not match", id, box, d, x.ITTree.Items(id))
			}
		}
		ok := true
		x.ITTree.Tids(id).ForEach(func(r int) bool {
			for a := 0; a < n; a++ {
				if v := int32(x.Dataset.Value(r, a)); v < box.Lo[a] || v > box.Hi[a] {
					ok = false
					return false
				}
			}
			return true
		})
		if !ok {
			return fmt.Errorf("mip: box of CFI %d does not cover its records", id)
		}
	}
	if err := x.RTree.Validate(); err != nil {
		return err
	}
	return x.ITTree.Validate()
}
