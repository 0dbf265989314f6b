package bitset

import (
	"fmt"
	"math/bits"
	"slices"
)

// The hybrid tidset layout splits the id universe into aligned chunks of
// 2^16 ids ("containers", after the roaring bitmap design) and lets each
// chunk pick the encoding that fits its local density:
//
//   - array:  a sorted []uint16 of the ids present — wins when the chunk
//     holds at most a few thousand ids (sparse focal subsets over large
//     tables, the common production case);
//   - bitmap: a fixed 1024-word dense bitmap — wins past ~6% density,
//     and is bit-for-bit the pre-hybrid dense representation;
//   - run:    sorted disjoint inclusive [start,last] intervals — wins for
//     clustered data (records arrive ordered, so per-item tidsets of
//     values correlated with arrival order are long runs) and for the
//     nearly-full sets Fill and RegionTidset produce.
//
// Containers promote (array→bitmap) past arrayMaxCard and demote
// (bitmap→array) at arrayOptCard on mutation — a hysteresis band, and
// time-aware: see the constants below; run containers are produced by Optimize
// (and by Fill) and fall back to array/bitmap when point-mutated. The
// AND/ANDNOT/OR/AndCount kernels below are specialized per container
// pair so the hot SELECT/ELIMINATE/VERIFY intersections never touch the
// zero words a dense layout would stream through.

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
	// arrayOptCard and runOptUnits are the time-aware repack bounds
	// used by normalize and optimize. A bitmap container costs ~1024
	// word-parallel operations per kernel regardless of density, while
	// array and run kernels pay an element-at-a-time, branchy walk — so
	// a compressed encoding must be several times smaller than the
	// bitmap before it also wins on time. Arrays are kept (or demoted
	// to) only at ≤ 1/4 of the bitmap's bytes; runs, whose interval
	// walk is the branchiest kernel, only at ≤ 1/32.
	arrayOptCard = ctrWords     // 1024 ids = 2 KiB, 1/4 of a bitmap
	runOptUnits  = ctrWords / 8 // 128 uint16s = 64 runs, 1/32 of a bitmap
)

// Container kinds.
const (
	emptyCtr  uint8 = iota // no ids; both payload slices nil
	arrayCtr               // a: sorted unique ids
	bitmapCtr              // b: ctrWords words, card cached
	runCtr                 // a: interleaved inclusive [start,last] pairs
)

// container is one 2^16-id chunk of a Set. The struct is a tagged union
// kept flat (no interface) so a []container is a single contiguous
// allocation and the kernels dispatch on a byte.
type container struct {
	kind uint8
	card int32    // cardinality, maintained for every kind
	a    []uint16 // arrayCtr ids, or runCtr [start,last] pairs
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
	switch c.kind {
	case arrayCtr:
		for _, v := range c.a {
			b[v>>6] |= 1 << (v & 63)
		}
	case runCtr:
		for i := 0; i < len(c.a); i += 2 {
			setWordRange(b, int(c.a[i]), int(c.a[i+1]))
		}
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
		return
	case runCtr:
		a := make([]uint16, 0, c.card)
		for i := 0; i < len(c.a); i += 2 {
			for v := int(c.a[i]); v <= int(c.a[i+1]); v++ {
				a = append(a, uint16(v))
			}
		}
		c.kind, c.a = arrayCtr, a
	case bitmapCtr:
		a := make([]uint16, 0, c.card)
		for wi, w := range c.b {
			for w != 0 {
				tz := bits.TrailingZeros64(w)
				a = append(a, uint16(wi<<6+tz))
				w &= w - 1
			}
		}
		c.kind, c.a, c.b = arrayCtr, a, nil
	}
}

// toRuns converts any kind to run form in place.
func (c *container) toRuns() {
	switch c.kind {
	case runCtr, emptyCtr:
		return
	case arrayCtr:
		runs := make([]uint16, 0, 8)
		for i := 0; i < len(c.a); {
			j := i + 1
			for j < len(c.a) && c.a[j] == c.a[j-1]+1 {
				j++
			}
			runs = append(runs, c.a[i], c.a[j-1])
			i = j
		}
		c.kind, c.a = runCtr, runs
	case bitmapCtr:
		runs := make([]uint16, 0, 8)
		i := nextSetBit(c.b, 0)
		for i >= 0 {
			j := nextClearBit(c.b, i+1)
			if j < 0 {
				runs = append(runs, uint16(i), uint16(ctrBits-1))
				break
			}
			runs = append(runs, uint16(i), uint16(j-1))
			i = nextSetBit(c.b, j+1)
		}
		c.kind, c.a, c.b = runCtr, runs, nil
	}
}

// nextSetBit returns the index of the first set bit at or after from, or
// -1 when none remains.
func nextSetBit(b []uint64, from int) int {
	if from >= ctrBits {
		return -1
	}
	wi := from >> 6
	w := b[wi] >> (from & 63) << (from & 63)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(b) {
			return -1
		}
		w = b[wi]
	}
}

// nextClearBit returns the index of the first clear bit at or after
// from, or -1 when the rest of the container is all ones.
func nextClearBit(b []uint64, from int) int {
	if from >= ctrBits {
		return -1
	}
	wi := from >> 6
	w := ^b[wi] >> (from & 63) << (from & 63)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(b) {
			return -1
		}
		w = ^b[wi]
	}
}

// normalize enforces the per-mode representation policy after an
// operation changed the container's content: hybrid containers promote
// past arrayMaxCard and demote at arrayOptCard, dense (non-hybrid) containers stay
// bitmaps so the layout matches the pre-hybrid dense Set exactly.
func (c *container) normalize(hybrid bool) {
	if !hybrid {
		c.toBitmap()
		return
	}
	switch {
	case c.card == 0:
		c.setEmpty()
	case c.kind == arrayCtr && c.card > arrayMaxCard:
		c.toBitmap()
	case c.kind == bitmapCtr && c.card <= arrayOptCard:
		c.toArray()
	}
}

// optimize re-encodes the container in its cheapest form: run when the
// interval list is the smallest encoding, otherwise array or bitmap by
// cardinality. Dense mode pins everything to bitmap.
func (c *container) optimize(hybrid bool) {
	if !hybrid {
		c.toBitmap()
		return
	}
	if c.card == 0 {
		c.setEmpty()
		return
	}
	runCost := 2 * c.numRuns() // uint16 units
	arrayCost := int(c.card)
	switch {
	case runCost <= runOptUnits && runCost < arrayCost:
		c.toRuns()
	case arrayCost <= arrayOptCard:
		c.toArray()
	default:
		c.toBitmap()
	}
}

// numRuns counts the maximal intervals of consecutive ids.
func (c *container) numRuns() int {
	switch c.kind {
	case emptyCtr:
		return 0
	case runCtr:
		return len(c.a) / 2
	case arrayCtr:
		n := 0
		for i := range c.a {
			if i == 0 || c.a[i] != c.a[i-1]+1 {
				n++
			}
		}
		return n
	default: // bitmap: count 0→1 transitions, carrying across words
		n := 0
		carry := uint64(0)
		for _, w := range c.b {
			n += bits.OnesCount64(w &^ (w<<1 | carry))
			carry = w >> 63
		}
		return n
	}
}

// --- point operations ------------------------------------------------

func (c *container) contains(v uint16) bool {
	switch c.kind {
	case emptyCtr:
		return false
	case arrayCtr:
		_, ok := slices.BinarySearch(c.a, v)
		return ok
	case bitmapCtr:
		return c.b[v>>6]&(1<<(v&63)) != 0
	default:
		return runIndexOf(c.a, v) >= 0
	}
}

// runIndexOf returns the pair index of the run containing v, or -1.
func runIndexOf(runs []uint16, v uint16) int {
	lo, hi := 0, len(runs)/2
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case v < runs[2*mid]:
			hi = mid
		case v > runs[2*mid+1]:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// add inserts v, reporting whether it was absent. A run container is
// converted first (runs are a read-optimized encoding; point mutation
// falls back to array/bitmap and Optimize can re-pick runs later).
func (c *container) add(v uint16, hybrid bool) bool {
	if c.kind == runCtr {
		if runIndexOf(c.a, v) >= 0 {
			return false
		}
		if c.card >= arrayOptCard || !hybrid {
			c.toBitmap()
		} else {
			c.toArray()
		}
	}
	switch c.kind {
	case emptyCtr:
		if hybrid {
			c.kind, c.a = arrayCtr, append(c.a, v)
		} else {
			c.toBitmap()
			c.b[v>>6] |= 1 << (v & 63)
		}
		c.card = 1
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
func (c *container) remove(v uint16, hybrid bool) bool {
	switch c.kind {
	case emptyCtr:
		return false
	case runCtr:
		if runIndexOf(c.a, v) < 0 {
			return false
		}
		if c.card > arrayOptCard || !hybrid {
			c.toBitmap()
		} else {
			c.toArray()
		}
		return c.remove(v, hybrid)
	case arrayCtr:
		i, ok := slices.BinarySearch(c.a, v)
		if !ok {
			return false
		}
		c.a = slices.Delete(c.a, i, i+1)
		c.card--
		if c.card == 0 && hybrid {
			c.setEmpty()
		}
		return true
	default: // bitmap
		if c.b[v>>6]&(1<<(v&63)) == 0 {
			return false
		}
		c.b[v>>6] &^= 1 << (v & 63)
		c.card--
		if hybrid && c.card <= arrayOptCard {
			c.toArray()
		}
		return true
	}
}

// --- word-range helpers ----------------------------------------------

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

// clearWordRange clears bits [lo,hi] (inclusive) in a bitmap payload.
func clearWordRange(b []uint64, lo, hi int) {
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		b[lw] &^= loMask & hiMask
		return
	}
	b[lw] &^= loMask
	for w := lw + 1; w < hw; w++ {
		b[w] = 0
	}
	b[hw] &^= hiMask
}

// maskOutsideRuns zeroes every bitmap bit not covered by runs.
func maskOutsideRuns(b []uint64, runs []uint16) {
	prevEnd := -1 // last id covered so far
	for i := 0; i < len(runs); i += 2 {
		lo, hi := int(runs[i]), int(runs[i+1])
		if lo > prevEnd+1 {
			clearWordRange(b, prevEnd+1, lo-1)
		}
		prevEnd = hi
	}
	if prevEnd < ctrBits-1 {
		clearWordRange(b, prevEnd+1, ctrBits-1)
	}
}

// popcountRange counts set bits in [lo,hi] (inclusive) of a bitmap.
func popcountRange(b []uint64, lo, hi int) int {
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		return bits.OnesCount64(b[lw] & loMask & hiMask)
	}
	n := bits.OnesCount64(b[lw] & loMask)
	for w := lw + 1; w < hw; w++ {
		n += bits.OnesCount64(b[w])
	}
	return n + bits.OnesCount64(b[hw]&hiMask)
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
// bitmap×bitmap kernels mutate x without allocating; pairs that change
// x's kind allocate only the (smaller) result payload.
func andInPlace(x, y *container, hybrid bool) {
	if x.kind == emptyCtr {
		return
	}
	if y.kind == emptyCtr {
		if hybrid {
			x.setEmpty()
		} else {
			x.toBitmap()
			clear(x.b)
			x.card = 0
		}
		return
	}
	switch x.kind {
	case arrayCtr:
		x.a = filterArray(x.a[:0], x.a, y, true)
		x.card = int32(len(x.a))
		if x.card == 0 && hybrid {
			x.setEmpty()
		}
	case bitmapCtr:
		switch y.kind {
		case bitmapCtr:
			n := 0
			for i, w := range y.b {
				x.b[i] &= w
				n += bits.OnesCount64(x.b[i])
			}
			x.card = int32(n)
			x.normalize(hybrid)
		case arrayCtr:
			kept := filterArray(nil, y.a, x, true)
			x.kind, x.a, x.b, x.card = arrayCtr, kept, nil, int32(len(kept))
			x.normalize(hybrid)
		default: // run
			maskOutsideRuns(x.b, y.a)
			x.card = bitmapCard(x.b)
			x.normalize(hybrid)
		}
	default: // x run
		switch y.kind {
		case arrayCtr:
			kept := filterArray(nil, y.a, x, true)
			x.kind, x.a, x.b, x.card = arrayCtr, kept, nil, int32(len(kept))
			x.normalize(hybrid)
		case bitmapCtr:
			b := append([]uint64(nil), y.b...)
			maskOutsideRuns(b, x.a)
			x.kind, x.a, x.b = bitmapCtr, nil, b
			x.card = bitmapCard(b)
			x.normalize(hybrid)
		default: // run × run → run
			out, card := intersectRuns(x.a, y.a)
			x.a, x.card = out, card
			if card == 0 && hybrid {
				x.setEmpty()
			}
		}
	}
}

// filterArray appends to dst the elements of src that are (keep=true)
// or are not (keep=false) contained in c. dst may alias src[:0] for an
// in-place filter.
func filterArray(dst, src []uint16, c *container, keep bool) []uint16 {
	switch c.kind {
	case bitmapCtr:
		for _, v := range src {
			if (c.b[v>>6]&(1<<(v&63)) != 0) == keep {
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
			if (j < len(c.a) && c.a[j] == v) == keep {
				dst = append(dst, v)
			}
		}
	case runCtr:
		j := 0
		for _, v := range src {
			for j < len(c.a) && c.a[j+1] < v {
				j += 2
			}
			in := j < len(c.a) && c.a[j] <= v && v <= c.a[j+1]
			if in == keep {
				dst = append(dst, v)
			}
		}
	default: // empty
		if !keep {
			dst = append(dst, src...)
		}
	}
	return dst
}

// intersectRuns intersects two canonical run lists into a new run list.
func intersectRuns(x, y []uint16) ([]uint16, int32) {
	var out []uint16
	card := int32(0)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		lo := max(x[i], y[j])
		hi := min(x[i+1], y[j+1])
		if lo <= hi {
			out = append(out, lo, hi)
			card += int32(hi-lo) + 1
		}
		if x[i+1] < y[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	return out, card
}

// intersectBitmaps replaces d with x ∩ y for two bitmap containers,
// whatever d held before. When d is itself a bitmap its payload is
// recycled: one pass writes the result words into it while counting, and
// the usual repack policy then demotes a sparse result. Without a
// payload to recycle the pair is counted first, so that a sparse result
// — a dense pair's intersection is usually much smaller than its
// operands — allocates an array of its cardinality and never the 8 KiB
// it would be demoted from.
func intersectBitmaps(d, x, y *container, hybrid bool) {
	if d.kind == bitmapCtr {
		n := 0
		for w, v := range x.b {
			v &= y.b[w]
			d.b[w] = v
			n += bits.OnesCount64(v)
		}
		d.card = int32(n)
		d.normalize(hybrid)
		return
	}
	n := andCount(x, y)
	switch {
	case n == 0 && hybrid:
		d.setEmpty()
	case n <= arrayOptCard && hybrid:
		a := make([]uint16, 0, n)
		for wi, w := range x.b {
			for w &= y.b[wi]; w != 0; w &= w - 1 {
				a = append(a, uint16(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		*d = container{kind: arrayCtr, card: int32(n), a: a}
	default:
		b := make([]uint64, ctrWords)
		for w := range b {
			b[w] = x.b[w] & y.b[w]
		}
		*d = container{kind: bitmapCtr, card: int32(n), b: b}
	}
}

// andCount returns |x ∩ y| without materializing the intersection —
// the record-level support check on the ELIMINATE/VERIFY hot path.
// Every kind pair has a direct kernel; none allocates.
func andCount(x, y *container) int {
	if x.card == 0 || y.card == 0 {
		return 0
	}
	// Order the switch by (x.kind, y.kind) with the array side first
	// where a kernel iterates one side.
	if x.kind > y.kind {
		x, y = y, x // all kernels below are symmetric
	}
	switch {
	case x.kind == arrayCtr && y.kind == arrayCtr:
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
	case x.kind == arrayCtr && y.kind == bitmapCtr:
		n := 0
		for _, v := range x.a {
			if y.b[v>>6]&(1<<(v&63)) != 0 {
				n++
			}
		}
		return n
	case x.kind == arrayCtr && y.kind == runCtr:
		n, j := 0, 0
		for _, v := range x.a {
			for j < len(y.a) && y.a[j+1] < v {
				j += 2
			}
			if j < len(y.a) && y.a[j] <= v && v <= y.a[j+1] {
				n++
			}
		}
		return n
	case x.kind == bitmapCtr && y.kind == bitmapCtr:
		n := 0
		for i, w := range x.b {
			n += bits.OnesCount64(w & y.b[i])
		}
		return n
	case x.kind == bitmapCtr && y.kind == runCtr:
		n := 0
		for i := 0; i < len(y.a); i += 2 {
			n += popcountRange(x.b, int(y.a[i]), int(y.a[i+1]))
		}
		return n
	default: // run × run
		n := 0
		i, j := 0, 0
		for i < len(x.a) && j < len(y.a) {
			lo := max(x.a[i], y.a[j])
			hi := min(x.a[i+1], y.a[j+1])
			if lo <= hi {
				n += int(hi-lo) + 1
			}
			if x.a[i+1] < y.a[j+1] {
				i += 2
			} else {
				j += 2
			}
		}
		return n
	}
}

// intersectsCtr reports whether x and y share an id, short-circuiting on
// the first hit.
func intersectsCtr(x, y *container) bool {
	if x.card == 0 || y.card == 0 {
		return false
	}
	if x.kind > y.kind {
		x, y = y, x
	}
	switch {
	case x.kind == arrayCtr && y.kind == arrayCtr:
		i, j := 0, 0
		for i < len(x.a) && j < len(y.a) {
			switch {
			case x.a[i] < y.a[j]:
				i++
			case x.a[i] > y.a[j]:
				j++
			default:
				return true
			}
		}
		return false
	case x.kind == arrayCtr:
		for _, v := range x.a {
			if y.contains(v) {
				return true
			}
		}
		return false
	case x.kind == bitmapCtr && y.kind == bitmapCtr:
		for i, w := range x.b {
			if w&y.b[i] != 0 {
				return true
			}
		}
		return false
	case x.kind == bitmapCtr: // × run
		for i := 0; i < len(y.a); i += 2 {
			if popcountRange(x.b, int(y.a[i]), int(y.a[i+1])) > 0 {
				return true
			}
		}
		return false
	default: // run × run
		i, j := 0, 0
		for i < len(x.a) && j < len(y.a) {
			if max(x.a[i], y.a[j]) <= min(x.a[i+1], y.a[j+1]) {
				return true
			}
			if x.a[i+1] < y.a[j+1] {
				i += 2
			} else {
				j += 2
			}
		}
		return false
	}
}

// --- OR --------------------------------------------------------------

// orInPlace replaces x with x ∪ y.
func orInPlace(x, y *container, hybrid bool) {
	if y.card == 0 {
		return
	}
	if x.card == 0 {
		*x = y.clone()
		x.normalize(hybrid)
		return
	}
	switch {
	case x.kind == bitmapCtr && y.kind == bitmapCtr:
		for i, w := range y.b {
			x.b[i] |= w
		}
		x.card = bitmapCard(x.b)
	case x.kind == bitmapCtr && y.kind == arrayCtr:
		for _, v := range y.a {
			if x.b[v>>6]&(1<<(v&63)) == 0 {
				x.b[v>>6] |= 1 << (v & 63)
				x.card++
			}
		}
	case x.kind == bitmapCtr && y.kind == runCtr:
		for i := 0; i < len(y.a); i += 2 {
			setWordRange(x.b, int(y.a[i]), int(y.a[i+1]))
		}
		x.card = bitmapCard(x.b)
	case x.kind == arrayCtr && y.kind == arrayCtr:
		// A union that can outgrow the array repack bound goes through
		// bitmap form instead: chained unions (the SELECT region build)
		// would otherwise re-merge ever-larger arrays quadratically.
		if int(x.card)+int(y.card) > arrayOptCard {
			x.toBitmap()
			orInPlace(x, y, hybrid)
			return
		}
		merged := mergeArrays(x.a, y.a)
		x.a, x.card = merged, int32(len(merged))
		x.normalize(hybrid)
	case x.kind == runCtr && y.kind == runCtr:
		out, card := unionRuns(x.a, y.a)
		x.a, x.card = out, card
	default:
		// Mixed pairs involving a run or an array joining a larger
		// container: go through bitmap form (the union is at least as
		// large as the bigger side, so dense form is the safe target),
		// then re-normalize.
		x.toBitmap()
		orInPlace(x, y, hybrid)
		return
	}
	x.normalize(hybrid)
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

// unionRuns merges two canonical run lists into a canonical run list.
func unionRuns(x, y []uint16) ([]uint16, int32) {
	var out []uint16
	card := int32(0)
	i, j := 0, 0
	emit := func(lo, hi uint16) {
		if n := len(out); n > 0 && int(lo) <= int(out[n-1])+1 {
			if hi > out[n-1] {
				card += int32(hi - out[n-1])
				out[n-1] = hi
			}
			return
		}
		out = append(out, lo, hi)
		card += int32(hi-lo) + 1
	}
	for i < len(x) || j < len(y) {
		switch {
		case j >= len(y) || (i < len(x) && x[i] <= y[j]):
			emit(x[i], x[i+1])
			i += 2
		default:
			emit(y[j], y[j+1])
			j += 2
		}
	}
	return out, card
}

// --- ANDNOT ----------------------------------------------------------

// andNotInPlace replaces x with x \ y.
func andNotInPlace(x, y *container, hybrid bool) {
	if x.card == 0 || y.card == 0 {
		return
	}
	switch x.kind {
	case arrayCtr:
		x.a = filterArray(x.a[:0], x.a, y, false)
		x.card = int32(len(x.a))
		if x.card == 0 && hybrid {
			x.setEmpty()
		}
	case bitmapCtr:
		switch y.kind {
		case bitmapCtr:
			n := 0
			for i, w := range y.b {
				x.b[i] &^= w
				n += bits.OnesCount64(x.b[i])
			}
			x.card = int32(n)
		case arrayCtr:
			for _, v := range y.a {
				if x.b[v>>6]&(1<<(v&63)) != 0 {
					x.b[v>>6] &^= 1 << (v & 63)
					x.card--
				}
			}
		default: // run
			for i := 0; i < len(y.a); i += 2 {
				clearWordRange(x.b, int(y.a[i]), int(y.a[i+1]))
			}
			x.card = bitmapCard(x.b)
		}
		x.normalize(hybrid)
	default: // x run: fall back through array/bitmap by cardinality
		if x.card <= arrayOptCard && hybrid {
			x.toArray()
		} else {
			x.toBitmap()
		}
		andNotInPlace(x, y, hybrid)
	}
}

// --- complement / fill ----------------------------------------------

// complementCtr replaces x with its complement within [0, span).
func complementCtr(x *container, span int, hybrid bool) {
	switch x.kind {
	case emptyCtr:
		fillCtr(x, span, hybrid)
	case runCtr:
		out := make([]uint16, 0, len(x.a)+2)
		next := 0
		for i := 0; i < len(x.a); i += 2 {
			if int(x.a[i]) > next {
				out = append(out, uint16(next), x.a[i]-1)
			}
			next = int(x.a[i+1]) + 1
		}
		if next < span {
			out = append(out, uint16(next), uint16(span-1))
		}
		x.a, x.card = out, int32(span)-x.card
		if x.card == 0 {
			x.setEmpty()
		} else {
			x.optimize(hybrid)
		}
	default:
		x.toBitmap()
		for i := range x.b {
			x.b[i] = ^x.b[i]
		}
		trimBitmap(x.b, span)
		x.card = int32(span) - x.card
		x.normalize(hybrid)
	}
}

// fillCtr sets every id in [0, span).
func fillCtr(x *container, span int, hybrid bool) {
	if hybrid {
		x.kind, x.b = runCtr, nil
		x.a = append(x.a[:0], 0, uint16(span-1))
	} else {
		x.toBitmap()
		for i := range x.b {
			x.b[i] = ^uint64(0)
		}
		trimBitmap(x.b, span)
	}
	x.card = int32(span)
}

// trimBitmap zeroes the bits at and above span.
func trimBitmap(b []uint64, span int) {
	if span >= ctrBits {
		return
	}
	if rem := span & 63; rem != 0 {
		b[span>>6] &= (1 << rem) - 1
	}
	for w := (span + 63) >> 6; w < len(b); w++ {
		b[w] = 0
	}
}

// --- comparisons and iteration ---------------------------------------

// equalCtr reports whether x and y hold the same ids, across kinds.
func equalCtr(x, y *container) bool {
	if x.card != y.card {
		return false
	}
	if x.card == 0 {
		return true
	}
	if x.kind > y.kind {
		x, y = y, x
	}
	switch {
	case x.kind == y.kind:
		if x.kind == bitmapCtr {
			return slices.Equal(x.b, y.b)
		}
		// Array and (canonical) run lists are unique per content.
		return slices.Equal(x.a, y.a)
	case x.kind == arrayCtr:
		// Equal cardinality, so x ⊆ y suffices.
		return andCount(x, y) == int(x.card)
	default: // bitmap vs run
		return andCount(x, y) == int(x.card)
	}
}

// forEachCtr calls fn(base+id) for every id ascending; returns false if
// fn stopped the iteration.
func forEachCtr(c *container, base int, fn func(id int) bool) bool {
	switch c.kind {
	case arrayCtr:
		for _, v := range c.a {
			if !fn(base + int(v)) {
				return false
			}
		}
	case bitmapCtr:
		for wi, w := range c.b {
			for w != 0 {
				tz := bits.TrailingZeros64(w)
				if !fn(base + wi<<6 + tz) {
					return false
				}
				w &= w - 1
			}
		}
	case runCtr:
		for i := 0; i < len(c.a); i += 2 {
			for v := int(c.a[i]); v <= int(c.a[i+1]); v++ {
				if !fn(base + v) {
					return false
				}
			}
		}
	}
	return true
}

// --- hashing ----------------------------------------------------------

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnvPow returns fnvPrime^k (mod 2^64): folding k zero words into an
// FNV state multiplies it by this, so sparse containers can skip their
// zero words in one multiply.
func fnvPow(k int) uint64 {
	p := uint64(fnvPrime)
	r := uint64(1)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r *= p
		}
		p *= p
	}
	return r
}

// hashCtr folds the container's first nwords logical dense words into h,
// yielding the same value the dense representation would: the Set hash
// is stable across container encodings (and across the pre-hybrid
// format).
func hashCtr(c *container, nwords int, h uint64) uint64 {
	switch c.kind {
	case emptyCtr:
		return h * fnvPow(nwords)
	case bitmapCtr:
		for _, w := range c.b[:nwords] {
			h = (h ^ w) * fnvPrime
		}
		return h
	case arrayCtr:
		wi := 0
		for i := 0; i < len(c.a); {
			w := int(c.a[i] >> 6)
			if w > wi {
				h *= fnvPow(w - wi)
				wi = w
			}
			var word uint64
			for i < len(c.a) && int(c.a[i]>>6) == w {
				word |= 1 << (c.a[i] & 63)
				i++
			}
			h = (h ^ word) * fnvPrime
			wi++
		}
		if nwords > wi {
			h *= fnvPow(nwords - wi)
		}
		return h
	default: // run: materialize words in a fixed stack buffer
		var buf [ctrWords]uint64
		for i := 0; i < len(c.a); i += 2 {
			setWordRange(buf[:], int(c.a[i]), int(c.a[i+1]))
		}
		for _, w := range buf[:nwords] {
			h = (h ^ w) * fnvPrime
		}
		return h
	}
}

// validate checks the container's structural invariants against its
// span; used by the binary decoder on untrusted input.
func (c *container) validate(span int) error {
	switch c.kind {
	case emptyCtr:
		if c.card != 0 || c.a != nil || c.b != nil {
			return fmt.Errorf("bitset: empty container with payload")
		}
	case arrayCtr:
		if int(c.card) != len(c.a) {
			return fmt.Errorf("bitset: array container card %d != %d ids", c.card, len(c.a))
		}
		for i, v := range c.a {
			if int(v) >= span {
				return fmt.Errorf("bitset: array id %d outside span %d", v, span)
			}
			if i > 0 && c.a[i-1] >= v {
				return fmt.Errorf("bitset: array ids not strictly ascending")
			}
		}
	case bitmapCtr:
		if len(c.b) != ctrWords {
			return fmt.Errorf("bitset: bitmap container has %d words, want %d", len(c.b), ctrWords)
		}
		if span < ctrBits && popcountRange(c.b, span, ctrBits-1) != 0 {
			return fmt.Errorf("bitset: bitmap container has bits beyond span %d", span)
		}
		if got := bitmapCard(c.b); got != c.card {
			return fmt.Errorf("bitset: bitmap container card %d != %d set bits", c.card, got)
		}
	case runCtr:
		if len(c.a)%2 != 0 {
			return fmt.Errorf("bitset: odd run list length %d", len(c.a))
		}
		card := int32(0)
		for i := 0; i < len(c.a); i += 2 {
			lo, hi := c.a[i], c.a[i+1]
			if lo > hi || int(hi) >= span {
				return fmt.Errorf("bitset: run [%d,%d] invalid for span %d", lo, hi, span)
			}
			if i > 0 && int(lo) <= int(c.a[i-1])+1 {
				return fmt.Errorf("bitset: runs not disjoint/canonical")
			}
			card += int32(hi-lo) + 1
		}
		if card != c.card {
			return fmt.Errorf("bitset: run container card %d != %d covered ids", c.card, card)
		}
	default:
		return fmt.Errorf("bitset: unknown container kind %d", c.kind)
	}
	return nil
}
