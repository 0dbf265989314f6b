package bitset

import (
	"math/bits"
	"slices"
)

// The tidset layout splits the id universe into aligned chunks of
// 2^16 ids ("containers", after the roaring bitmap design) and lets each
// chunk pick the encoding that fits its local density:
//
//   - array:  a sorted []uint16 of the ids present — wins when the chunk
//     holds at most a few thousand ids (sparse focal subsets over large
//     tables, the common production case);
//   - bitmap: a fixed 1024-word dense bitmap — wins past ~6% density.
//
// Containers promote (array→bitmap) past arrayMaxCard and demote
// (bitmap→array) at arrayOptCard on mutation — a hysteresis band: see
// the constants below. The AND/OR/AndCount kernels below are specialized
// per container pair so the hot SELECT/ELIMINATE/VERIFY intersections
// never touch the zero words a dense layout would stream through.
//
// No operation sets a bit at or past its container's span, so the
// query-path kernels — AND, AndCount, OR, Equal and iteration — take nw,
// the span's word count (Set.words), and walk only those words of the
// payload: 50 for a 3196-record universe rather than 1024.

const (
	// ctrBits is the id span of one container.
	ctrBits = 1 << 16
	// ctrWords is the dense word count of a bitmap container.
	ctrWords = ctrBits / wordBits
	// arrayMaxCard is the largest cardinality an array container may
	// hold: above it a bitmap (8 KiB) is smaller than the array would
	// be. Point adds promote only past this bound, so mutation-heavy
	// sets get a hysteresis band instead of thrashing at a single
	// threshold.
	arrayMaxCard = 4096
	// arrayOptCard is the repack bound used by normalize and optimize:
	// arrays are kept (or demoted to) only at ≤ 1/4 of the bitmap's
	// bytes. It was set as a time bound, when every bitmap kernel walked
	// all 1024 words; a kernel now walks the ⌈span/64⌉ words of its
	// container's span, so below a full container the bound is one of
	// memory until payloads are sized to the span.
	arrayOptCard = ctrWords // 1024 ids = 2 KiB, 1/4 of a bitmap
)

// Container kinds.
const (
	emptyCtr  uint8 = iota // no ids; both payload slices nil
	arrayCtr               // a: sorted unique ids
	bitmapCtr              // b: ctrWords words, card cached
)

// container is one 2^16-id chunk of a Set. The struct is a tagged union
// kept flat (no interface) so a []container is a single contiguous
// allocation and the kernels dispatch on a byte.
type container struct {
	kind uint8
	card int32    // cardinality, maintained for every kind
	a    []uint16 // arrayCtr ids
	b    []uint64 // bitmapCtr words
}

// ctrOverheadBytes approximates the fixed in-memory size of the
// container struct itself (tag + cardinality + two slice headers).
const ctrOverheadBytes = 8 + 2*24

func (c *container) bytes() int {
	return ctrOverheadBytes + 2*len(c.a) + 8*len(c.b)
}

func (c *container) clone() container {
	out := container{kind: c.kind, card: c.card}
	if c.a != nil {
		out.a = append([]uint16(nil), c.a...)
	}
	if c.b != nil {
		out.b = append([]uint64(nil), c.b...)
	}
	return out
}

// setEmpty resets the container to the canonical empty form.
func (c *container) setEmpty() {
	c.kind, c.card, c.a, c.b = emptyCtr, 0, nil, nil
}

// --- conversions -----------------------------------------------------

// toBitmap converts any kind to bitmap form in place.
func (c *container) toBitmap() {
	if c.kind == bitmapCtr {
		return
	}
	b := make([]uint64, ctrWords)
	for _, v := range c.a {
		b[v>>6] |= 1 << (v & 63)
	}
	c.kind, c.a, c.b = bitmapCtr, nil, b
}

// toArray converts any kind to array form in place. The caller is
// responsible for only doing this at reasonable cardinalities.
func (c *container) toArray() {
	switch c.kind {
	case arrayCtr:
		return
	case emptyCtr:
		c.kind = arrayCtr
	case bitmapCtr:
		// Stop at the word holding the last id: a container whose span
		// is a few words never walks the zero rest of its payload.
		a := make([]uint16, 0, c.card)
		for wi := 0; len(a) < int(c.card); wi++ {
			for w := c.b[wi]; w != 0; w &= w - 1 {
				a = append(a, uint16(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		c.kind, c.a, c.b = arrayCtr, a, nil
	}
}

// normalize re-encodes the container after an operation changed its
// content: an empty one drops its payload, an array promotes past
// arrayMaxCard and a bitmap demotes at arrayOptCard.
func (c *container) normalize() {
	switch {
	case c.card == 0:
		c.setEmpty()
	case c.kind == arrayCtr && c.card > arrayMaxCard:
		c.toBitmap()
	case c.kind == bitmapCtr && c.card <= arrayOptCard:
		c.toArray()
	}
}

// optimize re-encodes the container by cardinality: an array at most
// arrayOptCard ids, a bitmap above. Unlike normalize it also turns the
// arrays of the hysteresis band into bitmaps.
func (c *container) optimize() {
	switch {
	case c.card == 0:
		c.setEmpty()
	case c.card <= arrayOptCard:
		c.toArray()
	default:
		c.toBitmap()
	}
}

// --- point operations ------------------------------------------------

func (c *container) contains(v uint16) bool {
	switch c.kind {
	case arrayCtr:
		_, ok := slices.BinarySearch(c.a, v)
		return ok
	case bitmapCtr:
		return c.b[v>>6]&(1<<(v&63)) != 0
	default:
		return false
	}
}

// add inserts v, reporting whether it was absent.
func (c *container) add(v uint16) bool {
	switch c.kind {
	case emptyCtr:
		c.kind, c.a, c.card = arrayCtr, append(c.a, v), 1
		return true
	case arrayCtr:
		i, ok := slices.BinarySearch(c.a, v)
		if ok {
			return false
		}
		c.a = slices.Insert(c.a, i, v)
		c.card++
		if c.card > arrayMaxCard {
			c.toBitmap()
		}
		return true
	default: // bitmap
		if c.b[v>>6]&(1<<(v&63)) != 0 {
			return false
		}
		c.b[v>>6] |= 1 << (v & 63)
		c.card++
		return true
	}
}

// remove deletes v, reporting whether it was present.
func (c *container) remove(v uint16) bool {
	switch c.kind {
	case emptyCtr:
		return false
	case arrayCtr:
		i, ok := slices.BinarySearch(c.a, v)
		if !ok {
			return false
		}
		c.a = slices.Delete(c.a, i, i+1)
		c.card--
		if c.card == 0 {
			c.setEmpty()
		}
		return true
	default: // bitmap
		if c.b[v>>6]&(1<<(v&63)) == 0 {
			return false
		}
		c.b[v>>6] &^= 1 << (v & 63)
		c.card--
		if c.card <= arrayOptCard {
			c.toArray()
		}
		return true
	}
}

// --- word helpers ----------------------------------------------------

// setWordRange sets bits [lo,hi] (inclusive) in a bitmap payload.
func setWordRange(b []uint64, lo, hi int) {
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		b[lw] |= loMask & hiMask
		return
	}
	b[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] |= hiMask
}

func bitmapCard(b []uint64) int32 {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// --- AND -------------------------------------------------------------

// andInPlace replaces x with x ∩ y. The array×array, array×bitmap and
// bitmap×bitmap kernels mutate x without allocating; bitmap×array
// allocates only the (smaller) array result. nw is the container's word
// span (see Set.words): no bitmap holds a bit past it.
func andInPlace(x, y *container, nw int) {
	if x.kind == emptyCtr {
		return
	}
	if y.kind == emptyCtr {
		x.setEmpty()
		return
	}
	switch {
	case x.kind == arrayCtr:
		x.a = filterArray(x.a[:0], x.a, y)
		x.card = int32(len(x.a))
		if x.card == 0 {
			x.setEmpty()
		}
	case y.kind == bitmapCtr:
		n := 0
		for i, w := range y.b[:nw] {
			x.b[i] &= w
			n += bits.OnesCount64(x.b[i])
		}
		x.card = int32(n)
		x.normalize()
	default: // bitmap × array
		kept := filterArray(nil, y.a, x)
		x.kind, x.a, x.b, x.card = arrayCtr, kept, nil, int32(len(kept))
		x.normalize()
	}
}

// filterArray appends to dst the elements of src that c contains. dst
// may alias src[:0] for an in-place filter.
func filterArray(dst, src []uint16, c *container) []uint16 {
	switch c.kind {
	case bitmapCtr:
		for _, v := range src {
			if c.b[v>>6]&(1<<(v&63)) != 0 {
				dst = append(dst, v)
			}
		}
	case arrayCtr:
		// Merge walk: both sides sorted.
		j := 0
		for _, v := range src {
			for j < len(c.a) && c.a[j] < v {
				j++
			}
			if j < len(c.a) && c.a[j] == v {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// intersectBitmaps sets d to x ∩ y for two bitmap containers. The pair
// is counted first, so that a sparse result — a dense pair's
// intersection is usually much smaller than its operands — allocates an
// array of its cardinality and never the 8 KiB it would be demoted
// from. Only the nw words of the span are walked.
func intersectBitmaps(d, x, y *container, nw int) {
	n := andCount(x, y, nw)
	switch {
	case n == 0:
		d.setEmpty()
	case n <= arrayOptCard:
		a := make([]uint16, 0, n)
		for wi, w := range x.b[:nw] {
			for w &= y.b[wi]; w != 0; w &= w - 1 {
				a = append(a, uint16(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		*d = container{kind: arrayCtr, card: int32(n), a: a}
	default:
		b := make([]uint64, ctrWords)
		for w := range b[:nw] {
			b[w] = x.b[w] & y.b[w]
		}
		*d = container{kind: bitmapCtr, card: int32(n), b: b}
	}
}

// andCount returns |x ∩ y| without materializing the intersection —
// the record-level support check on the ELIMINATE/VERIFY hot path.
// Every kind pair has a direct kernel; none allocates.
func andCount(x, y *container, nw int) int {
	if x.card == 0 || y.card == 0 {
		return 0
	}
	// Put the array side first: the kernels below are symmetric.
	if x.kind > y.kind {
		x, y = y, x
	}
	switch {
	case y.kind == arrayCtr: // array × array
		n, i, j := 0, 0, 0
		for i < len(x.a) && j < len(y.a) {
			switch {
			case x.a[i] < y.a[j]:
				i++
			case x.a[i] > y.a[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	case x.kind == arrayCtr: // array × bitmap
		n := 0
		for _, v := range x.a {
			if y.b[v>>6]&(1<<(v&63)) != 0 {
				n++
			}
		}
		return n
	default: // bitmap × bitmap
		n := 0
		for i, w := range x.b[:nw] {
			n += bits.OnesCount64(w & y.b[i])
		}
		return n
	}
}

// --- OR --------------------------------------------------------------

// orInPlace replaces x with x ∪ y.
func orInPlace(x, y *container, nw int) {
	if y.card == 0 {
		return
	}
	if x.card == 0 {
		*x = y.clone()
		x.normalize()
		return
	}
	switch {
	case x.kind == bitmapCtr && y.kind == bitmapCtr:
		for i, w := range y.b[:nw] {
			x.b[i] |= w
		}
		x.card = bitmapCard(x.b[:nw])
	case x.kind == bitmapCtr: // × array
		for _, v := range y.a {
			if x.b[v>>6]&(1<<(v&63)) == 0 {
				x.b[v>>6] |= 1 << (v & 63)
				x.card++
			}
		}
	case y.kind == arrayCtr && int(x.card)+int(y.card) <= arrayOptCard:
		merged := mergeArrays(x.a, y.a)
		x.a, x.card = merged, int32(len(merged))
	default:
		// An array joining a bitmap, or a union that can outgrow the
		// array repack bound, goes through bitmap form: the union is at
		// least as large as the bigger side, and chained unions (the
		// SELECT region build) would otherwise re-merge ever-larger
		// arrays quadratically.
		x.toBitmap()
		orInPlace(x, y, nw)
		return
	}
	x.normalize()
}

func mergeArrays(x, y []uint16) []uint16 {
	out := make([]uint16, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// --- fill ------------------------------------------------------------

// fillCtr sets every id in [0, span): a bitmap, or an array when the
// span is within the repack bound.
func fillCtr(x *container, span int) {
	b := make([]uint64, ctrWords)
	setWordRange(b, 0, span-1)
	*x = container{kind: bitmapCtr, card: int32(span), b: b}
	x.normalize()
}

// --- comparisons and iteration ---------------------------------------

// equalCtr reports whether x and y hold the same ids, across kinds.
func equalCtr(x, y *container, nw int) bool {
	switch {
	case x.card != y.card:
		return false
	case x.kind != y.kind:
		// Equal cardinality, so x ⊆ y suffices.
		return andCount(x, y, nw) == int(x.card)
	case x.kind == bitmapCtr:
		return slices.Equal(x.b[:nw], y.b[:nw])
	default:
		return slices.Equal(x.a, y.a)
	}
}

// forEachCtr calls fn(base+id) for every id ascending; returns false if
// fn stopped the iteration. Every kind leaves the other kind's payload
// nil, so walking both slices visits each id once.
func forEachCtr(c *container, base, nw int, fn func(id int) bool) bool {
	for _, v := range c.a {
		if !fn(base + int(v)) {
			return false
		}
	}
	if c.b == nil {
		return true
	}
	for wi, w := range c.b[:nw] {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(base + wi<<6 + tz) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}
