package mip

import "fmt"

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

// Validate cross-checks the index layers: every CFI box must lie inside
// the domain (a *BoxDomainError otherwise) and cover its supporting
// records, the R-tree must be structurally valid and hold one entry per
// CFI, and the IT-tree must resolve its own itemsets. The index tests
// hold built and loaded indexes to it.
func (x *Index) Validate() error {
	if err := x.RTree.Validate(); err != nil {
		return err
	}
	if err := x.ITTree.Validate(); err != nil {
		return err
	}
	if x.RTree.Size() != x.ITTree.Size() {
		return fmt.Errorf("mip: R-tree has %d entries, IT-tree %d", x.RTree.Size(), x.ITTree.Size())
	}
	n := x.Dataset.NumAttrs()
	for id := 0; id < x.ITTree.Size(); id++ {
		box := x.RTree.Box(id)
		for d, c := range x.Cards {
			if lo, hi := box.Lo[d], box.Hi[d]; lo < 0 || lo > hi || int(hi) >= c {
				return &BoxDomainError{CFI: id, Dim: d, Lo: lo, Hi: hi, Card: c}
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
	return nil
}
