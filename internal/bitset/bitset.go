// Package bitset provides the tidsets used throughout COLARM: sets of
// record identifiers attached to items and itemsets. The hot operations
// for the miners and the online plans are intersection, intersection
// cardinality, and population count, so those are implemented without
// allocation where possible.
//
// Storage is compressed (see container.go): the universe is chunked
// into aligned 2^16-id containers, each independently encoded as a
// sorted array, a dense bitmap, or a run list, with automatic promotion
// and demotion on mutation.
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

// New returns an empty Set capable of holding ids in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, ctrs: make([]container, numCtrs(n))}
}

// NewDense returns an empty Set of capacity n whose containers start as
// bitmaps: every word of the universe is allocated up front. Add never
// demotes a bitmap and the read-only kernels never re-encode one, so a
// set filled by Add and then only read keeps the dense layout — the one
// the cost model's calibration measures its per-word units on. Any other
// mutation re-encodes by content, as on every set.
func NewDense(n int) *Set {
	s := New(n)
	for i := range s.ctrs {
		s.ctrs[i].toBitmap()
	}
	return s
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

// IsEmpty reports whether the set contains no ids.
func (s *Set) IsEmpty() bool {
	for i := range s.ctrs {
		if s.ctrs[i].card != 0 {
			return false
		}
	}
	return true
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

// Clear removes all ids from the set, keeping its capacity.
func (s *Set) Clear() {
	for i := range s.ctrs {
		s.ctrs[i].setEmpty()
	}
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
		andInPlace(&s.ctrs[i], &t.ctrs[i])
	}
}

// Or replaces s with s ∪ t. The sets must have equal capacity.
func (s *Set) Or(t *Set) {
	s.checkCompat(t)
	for i := range s.ctrs {
		orInPlace(&s.ctrs[i], &t.ctrs[i])
	}
}

// AndNot replaces s with s \ t. The sets must have equal capacity.
func (s *Set) AndNot(t *Set) {
	s.checkCompat(t)
	for i := range s.ctrs {
		andNotInPlace(&s.ctrs[i], &t.ctrs[i])
	}
}

// Complement replaces s with its complement within [0, Len()).
func (s *Set) Complement() {
	for i := range s.ctrs {
		complementCtr(&s.ctrs[i], s.span(i))
	}
}

// Intersect returns a new set holding s ∩ t.
func Intersect(s, t *Set) *Set {
	r := new(Set)
	IntersectInto(r, s, t)
	return r
}

// IntersectInto replaces dst with s ∩ t and returns the cardinality of
// the result. dst takes s's capacity; whatever it held before is
// discarded. A dst of the operands' shape is recycled: its container
// slice is reused, and so is the 8 KiB payload of every bitmap
// container whose result is again a bitmap — the miners' common case,
// which then allocates nothing. All other results are allocated
// exactly as Intersect allocates them (sparse dense-pair results demoted
// to arrays of their cardinality), so a recycled dst ends up with the
// same container kinds and payload sizes as a fresh one. dst must be
// distinct from s and t; IntersectInto panics otherwise (use And for an
// in-place intersection).
func IntersectInto(dst, s, t *Set) int {
	s.checkCompat(t)
	if dst == s || dst == t {
		panic("bitset: IntersectInto destination aliases an operand")
	}
	dst.n = s.n
	if len(dst.ctrs) != len(s.ctrs) {
		dst.ctrs = make([]container, len(s.ctrs))
	}
	n := 0
	for i := range s.ctrs {
		x, y, d := &s.ctrs[i], &t.ctrs[i], &dst.ctrs[i]
		if x.kind == bitmapCtr && y.kind == bitmapCtr {
			intersectBitmaps(d, x, y)
		} else {
			*d = x.clone()
			andInPlace(d, y)
		}
		n += int(d.card)
	}
	return n
}

// Union returns a new set holding s ∪ t.
func Union(s, t *Set) *Set {
	r := s.Clone()
	r.Or(t)
	return r
}

// Difference returns a new set holding s \ t.
func Difference(s, t *Set) *Set {
	r := s.Clone()
	r.AndNot(t)
	return r
}

// AndCount returns |s ∩ t| without materializing the intersection. This
// is the record-level support check on the hot path of ELIMINATE and
// VERIFY.
func AndCount(s, t *Set) int {
	s.checkCompat(t)
	c := 0
	for i := range s.ctrs {
		c += andCount(&s.ctrs[i], &t.ctrs[i])
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
		if !equalCtr(&s.ctrs[i], &t.ctrs[i]) {
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
		if andCount(x, &t.ctrs[i]) != int(x.card) {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one id.
func (s *Set) Intersects(t *Set) bool {
	s.checkCompat(t)
	for i := range s.ctrs {
		if intersectsCtr(&s.ctrs[i], &t.ctrs[i]) {
			return true
		}
	}
	return false
}

// ForEach calls fn for every id in ascending order. Iteration stops
// early if fn returns false.
func (s *Set) ForEach(fn func(id int) bool) {
	for i := range s.ctrs {
		if !forEachCtr(&s.ctrs[i], i<<16, fn) {
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

// Optimize re-encodes every container in its cheapest form (array, run
// or bitmap) given its current content. Call it after bulk construction
// of a read-mostly set — per-item tidsets, merged delta views, loaded
// snapshots — so clustered chunks collapse into runs; mutation after
// Optimize is still valid (runs fall back to array/bitmap in place).
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

// Hash returns a cheap order-independent signature of the set contents.
// CHARM uses it to bucket candidate closed itemsets by tidset for
// subsumption checking; collisions are resolved with Equal. The value
// depends only on logical content (it folds the logical dense words),
// so equal sets hash equally across container encodings.
func (s *Set) Hash() uint64 {
	var h uint64 = fnvOffset
	for i := range s.ctrs {
		h = hashCtr(&s.ctrs[i], (s.span(i)+wordBits-1)/wordBits, h)
	}
	return h
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
