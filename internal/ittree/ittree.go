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
// The CFIs are packed into struct-of-arrays slabs (see flat.go): one item
// arena with per-CFI offsets, a dense support array, an inverted-list
// arena whose per-item runs are ordered by (support desc, id asc) so the
// closure scan can stop at the first containing CFI, and an
// open-addressed hash table for exact lookup that never materializes a
// string key.
package ittree

import (
	"fmt"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
)

// Tree is an immutable store of closed frequent itemsets.
type Tree struct {
	sets       []*charm.ClosedSet // canonical CFIs in mining order
	numRecords int
	numItems   int

	// The slabs (see flat.go).
	itemArena []itemset.Item // all CFI items, concatenated in id order
	itemOff   []int32        // len Size()+1; CFI i items = itemArena[itemOff[i]:itemOff[i+1]]
	supports  []int32        // CFI i -> global support
	tids      []*bitset.Set  // CFI i -> tidset
	sigs      []signature    // CFI i -> item signature, bit it % 128 per item
	invArena  []int32        // per-item CFI-id runs, each ordered (support desc, id asc)
	invOff    []int32        // len numItems+1; item it run = invArena[invOff[it]:invOff[it+1]]
	htab      []int32        // open-addressed exact-lookup table over item hashes; -1 empty
}

// Build indexes the CFIs of a CHARM run. numItems is the size of the
// item universe (Space.NumItems()).
func Build(res *charm.Result, numItems int) *Tree {
	t := &Tree{
		sets:       res.Closed,
		numRecords: res.NumRecords,
		numItems:   numItems,
	}
	t.buildFlat(res.Closed)
	return t
}

// Size returns the number of stored CFIs.
func (t *Tree) Size() int { return len(t.sets) }

// NumRecords returns the record count of the dataset the tree was built
// over.
func (t *Tree) NumRecords() int { return t.numRecords }

// Set returns the CFI with the given id (its index in mining order).
func (t *Tree) Set(id int) *charm.ClosedSet { return t.sets[id] }

// Support returns the global support count of the CFI with the given id:
// a dense-array read, the hot-path form the plans use instead of
// Set(id).Support.
func (t *Tree) Support(id int) int { return int(t.supports[id]) }

// Items returns the itemset of the CFI with the given id. The returned
// slice aliases the item arena; callers must not mutate it.
func (t *Tree) Items(id int) itemset.Set {
	return t.itemArena[t.itemOff[id]:t.itemOff[id+1]]
}

// Tids returns the tidset of the CFI with the given id, nil in a tree
// built from a charm.MineVectors run — ARM's, and a merged view's
// (internal/delta). Callers must not mutate it. No
// query reads it: a count inside a focal subset ANDs item vectors
// (plans.Focal); the snapshot writer, index validation and the
// benchmarks do.
func (t *Tree) Tids(id int) *bitset.Set { return t.tids[id] }

// Closure returns the closure of x: the unique CFI c with
// tidset(c) == tidset(x), which is the maximum-support CFI whose itemset
// contains x. The boolean is false when x is contained in no stored CFI,
// i.e. x was not frequent at the primary support threshold.
func (t *Tree) Closure(x itemset.Set) (*charm.ClosedSet, bool) {
	id, ok := t.ClosureID(x)
	if !ok {
		return nil, false
	}
	return t.sets[id], true
}

// GlobalSupport returns the dataset-wide support count of an arbitrary
// itemset x, resolved through its closure, or -1 when x is not covered by
// the stored CFIs.
func (t *Tree) GlobalSupport(x itemset.Set) int {
	id, ok := t.ClosureID(x)
	if !ok {
		return -1
	}
	return t.Support(id)
}

// Validate checks internal invariants: closure of every stored itemset is
// itself, every exact lookup finds its own id, and the flat slabs agree
// with the canonical CFIs. Used by index-construction tests.
func (t *Tree) Validate() error {
	for id, c := range t.sets {
		got, ok := t.Closure(c.Items)
		if !ok {
			return fmt.Errorf("ittree: CFI %d not found via Closure", id)
		}
		if !got.Items.Equal(c.Items) {
			return fmt.Errorf("ittree: Closure(%v) = %v, want identity", c.Items, got.Items)
		}
		if lid, ok := t.LookupID(c.Items); !ok || lid != id {
			return fmt.Errorf("ittree: LookupID(%v) = (%d,%v), want (%d,true)", c.Items, lid, ok, id)
		}
		if t.Support(id) != c.Support {
			return fmt.Errorf("ittree: Support(%d) = %d, want %d", id, t.Support(id), c.Support)
		}
		if !t.Items(id).Equal(c.Items) {
			return fmt.Errorf("ittree: Items(%d) = %v, want %v", id, t.Items(id), c.Items)
		}
		if t.sigs[id] != signatureOf(c.Items) {
			return fmt.Errorf("ittree: signature of CFI %d does not match its items", id)
		}
	}
	return nil
}
