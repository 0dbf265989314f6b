// The struct-of-arrays layout of the IT-tree.
//
// Instead of one heap object per CFI plus a string-keyed map, everything
// the online operations touch is packed into five dense slabs:
//
//	itemArena/itemOff   all CFI itemsets concatenated, offset-indexed
//	supports            global support per CFI id
//	tids                tidset pointer per CFI id
//	sigs                128-bit item signature per CFI id
//	invArena/invOff     per-item inverted lists of CFI ids
//	htab                open-addressed exact-lookup table
//
// The inverted-list runs are ordered by (support descending, id
// ascending). The closure of X is the unique maximum-support CFI
// containing X (two distinct containing CFIs at the shared maximum would
// have equal tidsets — impossible for distinct closed sets), so the
// closure scan can return the FIRST containing CFI it meets in that
// order. A CFI's signature sets bit item % 128 for each of its items, so
// one whose signature lacks a bit of X's cannot contain X: the scan
// skips it without touching the item arena. Exact lookup hashes the item
// slice directly (itemset.Set.Hash64, FNV-1a over the item words) and
// verifies candidates against the arena, so no per-probe string key is
// ever allocated.
package ittree

import (
	"sort"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
)

// buildFlat populates the slab fields from the mined CFIs.
func (t *Tree) buildFlat(closed []*charm.ClosedSet) {
	n := len(closed)
	totalItems := 0
	for _, c := range closed {
		totalItems += len(c.Items)
	}
	t.itemArena = make([]itemset.Item, 0, totalItems)
	t.itemOff = make([]int32, n+1)
	t.supports = make([]int32, n)
	t.tids = make([]*bitset.Set, n)
	t.sigs = make([]signature, n)
	for id, c := range closed {
		t.itemOff[id] = int32(len(t.itemArena))
		t.itemArena = append(t.itemArena, c.Items...)
		t.supports[id] = int32(c.Support)
		t.tids[id] = c.Tids
		t.sigs[id] = signatureOf(c.Items)
	}
	t.itemOff[n] = int32(len(t.itemArena))

	// Inverted lists: bucket ids per item (ascending id by construction),
	// then order each run by (support desc, id asc) for the early-exit
	// closure scan.
	counts := make([]int32, t.numItems)
	for _, it := range t.itemArena {
		counts[it]++
	}
	t.invOff = make([]int32, t.numItems+1)
	for it := 0; it < t.numItems; it++ {
		t.invOff[it+1] = t.invOff[it] + counts[it]
	}
	t.invArena = make([]int32, totalItems)
	cursor := make([]int32, t.numItems)
	copy(cursor, t.invOff[:t.numItems])
	for id := 0; id < n; id++ {
		for _, it := range t.itemArena[t.itemOff[id]:t.itemOff[id+1]] {
			t.invArena[cursor[it]] = int32(id)
			cursor[it]++
		}
	}
	for it := 0; it < t.numItems; it++ {
		run := t.invArena[t.invOff[it]:t.invOff[it+1]]
		sort.Slice(run, func(a, b int) bool {
			sa, sb := t.supports[run[a]], t.supports[run[b]]
			if sa != sb {
				return sa > sb
			}
			return run[a] < run[b]
		})
	}

	// Exact-lookup table: power-of-two size at load factor <= 0.5,
	// linear probing, -1 empty. Collisions are resolved by verifying the
	// candidate's items against the arena.
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.htab = make([]int32, size)
	for i := range t.htab {
		t.htab[i] = -1
	}
	mask := uint64(size - 1)
	for id := 0; id < n; id++ {
		h := t.Items(id).Hash64()
		for i := h & mask; ; i = (i + 1) & mask {
			if t.htab[i] < 0 {
				t.htab[i] = int32(id)
				break
			}
		}
	}
}

// LookupID finds the id of the CFI whose itemset is exactly x: a probe of
// the open-addressed hash table with collision verification against the
// item arena — no string key is built.
func (t *Tree) LookupID(x itemset.Set) (int, bool) {
	if len(t.htab) == 0 || len(x) == 0 {
		return 0, false
	}
	mask := uint64(len(t.htab) - 1)
	for i := x.Hash64() & mask; ; i = (i + 1) & mask {
		id := t.htab[i]
		if id < 0 {
			return 0, false
		}
		if t.Items(int(id)).Equal(x) {
			return int(id), true
		}
	}
}

// signature is a 128-bit item signature: bit it % 128 for every item.
// X ⊆ Y implies sig(X) ⊆ sig(Y); items 128 apart share a bit, so the
// converse does not hold and containsAll stays the exact test.
type signature [2]uint64

func signatureOf(x itemset.Set) signature {
	var s signature
	for _, it := range x {
		s[it>>6&1] |= 1 << (it & 63)
	}
	return s
}

// covers reports whether s has every bit of x.
func (s signature) covers(x signature) bool {
	return s[0]&x[0] == x[0] && s[1]&x[1] == x[1]
}

// ClosureID is Closure returning the CFI's id instead of the set; plans
// key their per-query local-support state on the id. Exact probe first,
// then a single early-exit pass over the shortest inverted list of x's
// items, which skips by signature before it compares items.
func (t *Tree) ClosureID(x itemset.Set) (int, bool) {
	if id, ok := t.LookupID(x); ok {
		return id, true
	}
	xs := signatureOf(x)
	for _, id := range t.shortestRun(x) {
		if t.sigs[id].covers(xs) && t.containsAll(int(id), x) {
			return int(id), true
		}
	}
	return 0, false
}

// shortestRun returns the shortest inverted-list run among x's items —
// every CFI containing x is on it. It is empty when x is, or when one of
// x's items occurs in no CFI.
func (t *Tree) shortestRun(x itemset.Set) []int32 {
	var run []int32
	for i, it := range x {
		r := t.invArena[t.invOff[it]:t.invOff[it+1]]
		if len(r) == 0 {
			return nil
		}
		if i == 0 || len(r) < len(run) {
			run = r
		}
	}
	return run
}

// containsAll reports whether CFI id's itemset contains every item of x.
// Both sides are sorted ascending, so a single merge scan suffices.
func (t *Tree) containsAll(id int, x itemset.Set) bool {
	items := t.itemArena[t.itemOff[id]:t.itemOff[id+1]]
	i := 0
	for _, v := range x {
		for i < len(items) && items[i] < v {
			i++
		}
		if i >= len(items) || items[i] != v {
			return false
		}
		i++
	}
	return true
}
