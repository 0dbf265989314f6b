// Package bitset provides the tidsets used throughout COLARM: sets of
// record identifiers attached to items and itemsets. The hot operations
// for the miners and the online plans are intersection, intersection
// cardinality, and population count, so those are implemented without
// allocation where possible.
//
// Storage is compressed (see container.go): the universe is chunked
// into aligned 2^16-id containers, each independently encoded as a
// sorted array or a dense bitmap, with automatic promotion and demotion
// on mutation.
package bitset

import (
	"fmt"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity set over the universe [0, Len()). The zero
// value is an empty set of capacity zero; use New to create a set that
// can hold ids.
type Set struct {
	n    int // capacity in bits
	ctrs []container
}

func numCtrs(n int) int { return (n + ctrBits - 1) / ctrBits }

// span returns the number of valid ids in container ci.
func (s *Set) span(ci int) int {
	if sp := s.n - ci*ctrBits; sp < ctrBits {
		return sp
	}
	return ctrBits
}

// words returns the number of payload words container ci's span
// covers. No operation sets a bit at or past the span, so the bitmap
// kernels walk only these words of the fixed ctrWords payload.
func (s *Set) words(ci int) int { return (s.span(ci) + wordBits - 1) / wordBits }

// New returns an empty Set capable of holding ids in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, ctrs: make([]container, numCtrs(n))}
}

// FromIDs returns a Set of capacity n containing exactly the given ids.
// It is the filtering constructor: ids outside [0, n) are silently
// dropped (unlike Add, which panics on them), so callers can build a set
// from an unvalidated id stream in one call.
func FromIDs(n int, ids ...int) *Set {
	s := New(n)
	for _, id := range ids {
		if id >= 0 && id < n {
			s.Add(id)
		}
	}
	return s
}

// FromColumn returns the sets of one column's values: sets[v], of
// capacity len(col), holds every id r with col[r] == v, for v in
// [0, card). A container is counted before it is filled, so each takes
// the encoding Optimize gives it at once — an array of exactly its ids
// at arrayOptCard or fewer, a bitmap above — and the only scratch is
// one count per value, whatever card is.
func FromColumn(col []int32, card int) []*Set {
	n := len(col)
	sets := make([]*Set, card)
	for v := range sets {
		sets[v] = New(n)
	}
	cnt := make([]int32, card)
	for i := 0; i < numCtrs(n); i++ {
		ids := col[i*ctrBits : min(n, (i+1)*ctrBits)]
		for _, v := range ids {
			cnt[v]++
		}
		// Walk the ids down, so each array fills back to front in
		// ascending order and each count returns to zero.
		for r := len(ids) - 1; r >= 0; r-- {
			v := ids[r]
			c := &sets[v].ctrs[i]
			if c.kind == emptyCtr { // v's last id here: size its container
				if c.card = cnt[v]; c.card <= arrayOptCard {
					c.kind, c.a = arrayCtr, make([]uint16, c.card)
				} else {
					c.kind, c.b = bitmapCtr, make([]uint64, ctrWords)
				}
			}
			cnt[v]--
			if c.kind == arrayCtr {
				c.a[cnt[v]] = uint16(r)
			} else {
				c.b[r>>6] |= 1 << (r & 63)
			}
		}
	}
	return sets
}

// Len returns the capacity (universe size) of the set in bits.
func (s *Set) Len() int { return s.n }

// Add inserts id into the set. An id outside [0, Len()) — including any
// negative id — panics: tidset ids are record ids, and an out-of-range
// one is always a caller bug. Use FromIDs to build from unvalidated ids.
func (s *Set) Add(id int) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) outside capacity [0,%d)", id, s.n))
	}
	s.ctrs[id>>16].add(uint16(id & (ctrBits - 1)))
}

// Remove deletes id from the set. Like Add, an id outside [0, Len())
// panics.
func (s *Set) Remove(id int) {
	if id < 0 || id >= s.n {
		panic(fmt.Sprintf("bitset: Remove(%d) outside capacity [0,%d)", id, s.n))
	}
	s.ctrs[id>>16].remove(uint16(id & (ctrBits - 1)))
}

// Contains reports whether id is in the set. Ids outside [0, Len()) are
// reported as absent (membership is a query, not a mutation, so the
// strict contract of Add/Remove does not apply).
func (s *Set) Contains(id int) bool {
	if id < 0 || id >= s.n {
		return false
	}
	return s.ctrs[id>>16].contains(uint16(id & (ctrBits - 1)))
}

// Count returns the number of ids in the set.
func (s *Set) Count() int {
	c := 0
	for i := range s.ctrs {
		c += int(s.ctrs[i].card)
	}
	return c
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, ctrs: make([]container, len(s.ctrs))}
	for i := range s.ctrs {
		c.ctrs[i] = s.ctrs[i].clone()
	}
	return c
}

// CloneGrown returns an independent copy of s with capacity n >= Len().
// The new ids [Len(), n) start absent. Used by the delta layer to extend
// base tidsets over buffered record ids without rescanning the base.
func (s *Set) CloneGrown(n int) *Set {
	if n < s.n {
		panic("bitset: CloneGrown capacity below current")
	}
	c := &Set{n: n, ctrs: make([]container, numCtrs(n))}
	for i := range s.ctrs {
		c.ctrs[i] = s.ctrs[i].clone()
	}
	return c
}

// Fill adds every id in [0, Len()) to the set.
func (s *Set) Fill() {
	for i := range s.ctrs {
		fillCtr(&s.ctrs[i], s.span(i))
	}
}

// And replaces s with s ∩ t. The sets must have equal capacity.
func (s *Set) And(t *Set) {
	s.checkCompat(t)
	for i := range s.ctrs {
		andInPlace(&s.ctrs[i], &t.ctrs[i], s.words(i))
	}
}

// Or replaces s with s ∪ t. The sets must have equal capacity.
func (s *Set) Or(t *Set) {
	s.checkCompat(t)
	for i := range s.ctrs {
		orInPlace(&s.ctrs[i], &t.ctrs[i], s.words(i))
	}
}

// Intersect returns a new set holding s ∩ t. A dense pair's result is
// an array at arrayOptCard ids or fewer and a bitmap above; any pair
// with an array side yields an array.
func Intersect(s, t *Set) *Set {
	s.checkCompat(t)
	r := &Set{n: s.n, ctrs: make([]container, len(s.ctrs))}
	for i := range s.ctrs {
		x, y, d := &s.ctrs[i], &t.ctrs[i], &r.ctrs[i]
		if x.kind == bitmapCtr && y.kind == bitmapCtr {
			intersectBitmaps(d, x, y, s.words(i))
		} else {
			*d = x.clone()
			andInPlace(d, y, s.words(i))
		}
	}
	return r
}

// AndCount returns |s ∩ t| without materializing the intersection. This
// is the record-level support check on the hot path of ELIMINATE and
// VERIFY.
func AndCount(s, t *Set) int {
	s.checkCompat(t)
	c := 0
	for i := range s.ctrs {
		c += andCount(&s.ctrs[i], &t.ctrs[i], s.words(i))
	}
	return c
}

// Equal reports whether s and t hold exactly the same ids and capacity.
// Equality is over logical content: sets holding the same ids compare
// equal regardless of their container encodings.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.ctrs {
		if !equalCtr(&s.ctrs[i], &t.ctrs[i], s.words(i)) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every id of s is also in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.checkCompat(t)
	for i := range s.ctrs {
		x := &s.ctrs[i]
		if x.card == 0 {
			continue
		}
		if andCount(x, &t.ctrs[i], s.words(i)) != int(x.card) {
			return false
		}
	}
	return true
}

// IntersectsWords reports whether s shares an id with the set vec holds
// in the dense word layout CopyWords writes; vec must hold ⌈s.Len()/64⌉
// words. Each container is tested in its own encoding — a bit test per
// id of an array, a word AND over the span's words of a bitmap — and
// the walk stops at the first shared id. This is the MIP box probe: vec
// is a CFI's supporters, s a value's tidset.
func (s *Set) IntersectsWords(vec []uint64) bool {
	for i := range s.ctrs {
		c, w := &s.ctrs[i], vec[i*ctrWords:i*ctrWords+s.words(i)]
		switch c.kind {
		case arrayCtr:
			for _, v := range c.a {
				if w[v>>6]&(1<<(v&63)) != 0 {
					return true
				}
			}
		case bitmapCtr:
			for j, x := range c.b[:len(w)] {
				if x&w[j] != 0 {
					return true
				}
			}
		}
	}
	return false
}

// ForEach calls fn for every id in ascending order. Iteration stops
// early if fn returns false.
func (s *Set) ForEach(fn func(id int) bool) {
	for i := range s.ctrs {
		if !forEachCtr(&s.ctrs[i], i<<16, s.words(i), fn) {
			return
		}
	}
}

// IDs returns the ids in the set in ascending order.
func (s *Set) IDs() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Optimize re-encodes every container by cardinality: an array of at
// most 1024 ids, a bitmap above. Call it after bulk construction of a
// read-mostly set — per-item tidsets, merged delta views, loaded
// snapshots — so the arrays Add leaves in the promotion band (up to
// 4096 ids) become the bitmaps the kernels walk faster.
func (s *Set) Optimize() {
	for i := range s.ctrs {
		s.ctrs[i].optimize()
	}
}

// Bytes reports the approximate heap footprint of the set's payload in
// bytes (container payloads plus per-container overhead). This is what
// the tidset benchmark compares across representations.
func (s *Set) Bytes() int {
	b := 0
	for i := range s.ctrs {
		b += s.ctrs[i].bytes()
	}
	return b
}

// String renders the set as "{1, 5, 9}" for debugging and test failure
// messages.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) checkCompat(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}
