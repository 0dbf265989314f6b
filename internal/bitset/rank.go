package bitset

import "math/bits"

// RankAnd writes s ∩ t into dst in s's rank space and returns |s ∩ t|:
// bit r of dst is set when the r-th id of s, in ascending order, is in t.
// dst must hold at least ⌈s.Count()/64⌉ words; RankAnd overwrites those
// and sets no bit at or past s.Count(), so vectors built over one s can
// be ANDed word by word and popcounted into |s ∩ t₁ ∩ … ∩ t_k|. The sets
// must have equal capacity.
//
// This is the focal subset's own vertical layout: with s = D^Q, a vector
// is ⌈|D^Q|/64⌉ words whatever the universe, and ELIMINATE counts a CFI
// by ANDing its items' vectors. The kernel walks the containers
// pairwise — merge or probe where s is an array, word by word where s is
// a bitmap — and allocates nothing.
func RankAnd(dst []uint64, s, t *Set) int {
	s.checkCompat(t)
	clear(dst[:(s.Count()+wordBits-1)/wordBits])
	r, n := 0, 0
	for i := range s.ctrs {
		x := &s.ctrs[i]
		n += rankAndCtr(dst, r, x, &t.ctrs[i], s.words(i))
		r += int(x.card)
	}
	return n
}

// rankAndCtr sets, for every id of x ∩ y, the bit of dst at r plus the
// id's rank within x, and returns |x ∩ y|.
func rankAndCtr(dst []uint64, r int, x, y *container, nw int) int {
	if x.card == 0 || y.card == 0 {
		return 0
	}
	n := 0
	switch {
	case x.kind == arrayCtr && y.kind == arrayCtr:
		j := 0
		for i, v := range x.a {
			for j < len(y.a) && y.a[j] < v {
				j++
			}
			if j == len(y.a) {
				break
			}
			if y.a[j] == v {
				dst[(r+i)>>6] |= 1 << ((r + i) & 63)
				n++
			}
		}
	case x.kind == arrayCtr: // array × bitmap: one probe per rank, branch-free
		var acc uint64 // the output word being filled
		for i, v := range x.a {
			p := (r + i) & 63
			acc |= (y.b[v>>6] >> (v & 63) & 1) << p
			if p == 63 {
				dst[(r+i)>>6] |= acc
				n += bits.OnesCount64(acc)
				acc = 0
			}
		}
		if acc != 0 {
			dst[(r+len(x.a)-1)>>6] |= acc
			n += bits.OnesCount64(acc)
		}
	case y.kind == arrayCtr: // bitmap × array: rank by prefix popcount
		wi, rw := 0, r // rw is the rank of x's first id in word wi
		for _, v := range y.a {
			w := int(v >> 6)
			for ; wi < w; wi++ {
				rw += bits.OnesCount64(x.b[wi])
			}
			if b := uint64(1) << (v & 63); x.b[w]&b != 0 {
				rank := rw + bits.OnesCount64(x.b[w]&(b-1))
				dst[rank>>6] |= 1 << (rank & 63)
				n++
			}
		}
	default: // bitmap × bitmap: compress each word onto x's set bits
		for wi, d := range x.b[:nw] {
			if d == 0 {
				continue
			}
			k := bits.OnesCount64(d)
			if m := d & y.b[wi]; m != 0 {
				deposit(dst, r, compress(m, d, k), k)
				n += bits.OnesCount64(m)
			}
			r += k
		}
	}
	return n
}

// compress packs the bits of m ⊆ d that sit at d's k set positions into
// the low k bits, in order (a software PEXT). It walks whichever of m
// and d∖m has fewer bits. A full d is the identity rank map.
func compress(m, d uint64, k int) uint64 {
	if d == ^uint64(0) {
		return m
	}
	if m == d {
		return ^uint64(0) >> (wordBits - k)
	}
	var out uint64
	if bits.OnesCount64(m)*2 <= k {
		for ; m != 0; m &= m - 1 {
			out |= 1 << bits.OnesCount64(d&(m&-m-1))
		}
		return out
	}
	out = ^uint64(0) >> (wordBits - k)
	for z := d &^ m; z != 0; z &= z - 1 {
		out &^= 1 << bits.OnesCount64(d&(z&-z-1))
	}
	return out
}

// deposit ORs the low k bits of v into dst at bit offset r.
func deposit(dst []uint64, r int, v uint64, k int) {
	w, off := r>>6, r&63
	dst[w] |= v << off
	if off+k > wordBits {
		dst[w+1] |= v >> (wordBits - off)
	}
}

// CopyWords writes s in the dense word layout — bit id%64 of
// dst[id/64] set exactly when id is in s — into dst, which must hold
// ⌈s.Len()/64⌉ words. Container i fills ⌈span/64⌉ words from 1024·i:
// a bitmap is copied, an array scattered.
func CopyWords(dst []uint64, s *Set) {
	for i := range s.ctrs {
		c, w := &s.ctrs[i], dst[i*ctrWords:i*ctrWords+s.words(i)]
		if c.kind == bitmapCtr {
			copy(w, c.b)
			continue
		}
		clear(w)
		for _, v := range c.a {
			w[v>>6] |= 1 << (v & 63)
		}
	}
}

// FromWords returns the set of capacity n that words holds in the dense
// layout CopyWords writes; words must hold ⌈n/64⌉ words with no bit at
// or past n. Each container takes the encoding Optimize gives it: an
// array at arrayOptCard ids or fewer, a bitmap above.
func FromWords(n int, words []uint64) *Set {
	s := New(n)
	for i := range s.ctrs {
		w := words[i*ctrWords : i*ctrWords+s.words(i)]
		card := 0
		for _, x := range w {
			card += bits.OnesCount64(x)
		}
		c := &s.ctrs[i]
		switch {
		case card == 0:
		case card <= arrayOptCard:
			a := make([]uint16, 0, card)
			for wi, x := range w {
				for ; x != 0; x &= x - 1 {
					a = append(a, uint16(wi<<6+bits.TrailingZeros64(x)))
				}
			}
			*c = container{kind: arrayCtr, card: int32(card), a: a}
		default:
			b := make([]uint64, ctrWords)
			copy(b, w)
			*c = container{kind: bitmapCtr, card: int32(card), b: b}
		}
	}
	return s
}
