// Package ittree implements the closed itemset-tidset tree of Zaki &
// Hsiao used as the second layer of the MIP-index (paper Section 3.3).
// It stores the closed frequent itemsets (CFIs) mined offline by CHARM,
// organized for the two online operations the mining plans need:
//
//   - exact lookup of a stored CFI;
//   - closure resolution of an arbitrary itemset X — the unique smallest
//     CFI containing X, which has X's tidset and therefore X's global
//     support. A local count inside a focal subset is not read from the
//     tree: the plans count it over the subset's item vectors
//     (plans.Focal), and only reuse the closure's id to share a count
//     between X and the CFI.
//
// Closure resolution is implemented with per-item inverted lists of CFI
// ids: the closure of X is the CFI of maximum support among those
// containing all of X's items.
//
// The CFIs are the CHARM result's slabs, adopted as they are; flat.go
// lays out those and the slabs built over them.
package ittree

import (
	"fmt"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
)

// Tree is an immutable store of closed frequent itemsets.
type Tree struct {
	cfis charm.Result // the CFIs' item arena, supports and tidsets, adopted

	// The slabs built over cfis (see flat.go).
	sigs     []signature // CFI i -> item signature, bit it % 128 per item
	invArena []int32     // per-item CFI-id runs, each ordered (support desc, id asc)
	invOff   []int32     // one more than the items; item it run = invArena[invOff[it]:invOff[it+1]]
	htab     []int32     // open-addressed exact-lookup table over item hashes; -1 empty
}

// Build indexes the CFIs of a CHARM run, adopting the result's slabs
// without copying them: CFI ids are the result's. numItems is the size
// of the item universe (Space.NumItems()). res must not be handed to
// charm.MineVectors as reuse afterwards.
func Build(res *charm.Result, numItems int) *Tree {
	t := &Tree{cfis: *res}
	t.buildFlat(numItems)
	return t
}

// Size returns the number of stored CFIs.
func (t *Tree) Size() int { return t.cfis.Len() }

// Set returns the CFI with the given id (its index in mining order).
func (t *Tree) Set(id int) charm.ClosedSet {
	return charm.ClosedSet{Items: t.Items(id), Tids: t.Tids(id), Support: t.Support(id)}
}

// Support returns the global support count of the CFI with the given id:
// a dense-array read, the hot-path form the plans use instead of
// Set(id).Support.
func (t *Tree) Support(id int) int { return t.cfis.Support(id) }

// Items returns the itemset of the CFI with the given id. The returned
// slice aliases the item arena; callers must not mutate it.
func (t *Tree) Items(id int) itemset.Set { return t.cfis.Items(id) }

// Tids returns the tidset of the CFI with the given id, nil in a tree
// built from a charm.MineVectors run — ARM's, and a merged view's
// (internal/delta). Callers must not mutate it. No
// query reads it: a count inside a focal subset ANDs item vectors
// (plans.Focal); index validation and the benchmarks do, and the index
// build's box probes read the same sets off the CHARM result.
func (t *Tree) Tids(id int) *bitset.Set { return t.cfis.Tids(id) }

// Validate checks internal invariants: closure of every stored itemset is
// itself, every exact lookup finds its own id, and every signature is
// its CFI's. Used by index-construction tests.
func (t *Tree) Validate() error {
	for id := 0; id < t.Size(); id++ {
		items := t.Items(id)
		if got, ok := t.ClosureID(items); !ok || got != id {
			return fmt.Errorf("ittree: ClosureID(%v) = (%d,%v), want (%d,true)", items, got, ok, id)
		}
		if lid, ok := t.LookupID(items); !ok || lid != id {
			return fmt.Errorf("ittree: LookupID(%v) = (%d,%v), want (%d,true)", items, lid, ok, id)
		}
		if t.sigs[id] != signatureOf(items) {
			return fmt.Errorf("ittree: signature of CFI %d does not match its items", id)
		}
	}
	return nil
}
