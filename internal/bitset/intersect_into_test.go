package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// intersectV0 is Intersect written the obvious way, kept as the
// reference the count-first kernel is pinned against: the result of
// IntersectInto must have the encoding and payload size this produces,
// whatever dst held before.
func intersectV0(s, t *Set) *Set {
	s.checkCompat(t)
	r := &Set{n: s.n, ctrs: make([]container, len(s.ctrs))}
	for i := range s.ctrs {
		x, y := &s.ctrs[i], &t.ctrs[i]
		if x.kind == bitmapCtr && y.kind == bitmapCtr {
			var buf [ctrWords]uint64
			n := 0
			for w := range buf {
				buf[w] = x.b[w] & y.b[w]
				n += bits.OnesCount64(buf[w])
			}
			c := container{kind: bitmapCtr, card: int32(n), b: buf[:]}
			switch {
			case n == 0:
				r.ctrs[i] = container{}
			case int32(n) <= arrayOptCard:
				c.toArray()
				r.ctrs[i] = c
			default:
				b := make([]uint64, ctrWords)
				copy(b, buf[:])
				c.b = b
				r.ctrs[i] = c
			}
			continue
		}
		r.ctrs[i] = x.clone()
		andInPlace(&r.ctrs[i], y, s.words(i))
	}
	return r
}

// operand returns a set of capacity n whose non-empty containers
// are forced into the given kind, plus its content as a map. Density
// picks between a sparse and a dense random fill.
func operand(rng *rand.Rand, n int, kind uint8, dense bool) (*Set, map[int]bool) {
	s, m := New(n), map[int]bool{}
	if kind == emptyCtr {
		return s, m
	}
	p := 0.01
	if dense {
		p = 0.6
	}
	for id := 0; id < n; id++ {
		// Clustered in stretches of 16, as records sharing a value are.
		if rng.Float64() < p || (id%16 != 0 && m[id-1] && rng.Intn(4) > 0) {
			s.Add(id)
			m[id] = true
		}
	}
	if len(m) == 0 {
		s.Add(n - 1)
		m[n-1] = true
	}
	for i := range s.ctrs {
		c := &s.ctrs[i]
		if c.card == 0 {
			continue
		}
		switch kind {
		case arrayCtr:
			c.toArray()
		case bitmapCtr:
			c.toBitmap()
		}
	}
	return s, m
}

func kindsOf(s *Set) []uint8 {
	out := make([]uint8, len(s.ctrs))
	for i := range s.ctrs {
		out[i] = s.ctrs[i].kind
	}
	return out
}

// checkIntersection compares got (the result of IntersectInto or
// Intersect) against the map oracle and against the pre-change kernel:
// content, container kinds and payload bytes.
func checkIntersection(t *testing.T, label string, got *Set, count int, sm, tm map[int]bool, want *Set) {
	t.Helper()
	n := 0
	for id := range sm {
		if tm[id] {
			n++
			if !got.Contains(id) {
				t.Fatalf("%s: id %d missing from the result", label, id)
			}
		}
	}
	if count != n || got.Count() != n {
		t.Fatalf("%s: returned %d, Count() %d, oracle %d", label, count, got.Count(), n)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: content differs from the pre-change Intersect", label)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: capacity %d, want %d", label, got.Len(), want.Len())
	}
	gk, wk := kindsOf(got), kindsOf(want)
	for i := range wk {
		if gk[i] != wk[i] {
			t.Fatalf("%s: container %d kind %d, pre-change Intersect %d", label, i, gk[i], wk[i])
		}
		if err := got.ctrs[i].validate(got.span(i)); err != nil {
			t.Fatalf("%s: container %d: %v", label, i, err)
		}
	}
	if got.Bytes() != want.Bytes() {
		t.Fatalf("%s: Bytes() %d, pre-change Intersect %d", label, got.Bytes(), want.Bytes())
	}
}

var intoCapacities = []int{1, 64, 65, 3196, 8124, 65536, 70000}

// TestIntersectIntoAllKindPairs drives one dst through every pair of
// operand container kinds, at every capacity and two densities, so each
// call overwrites whatever shape the previous, differently-shaped pair
// left behind.
func TestIntersectIntoAllKindPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []uint8{emptyCtr, arrayCtr, bitmapCtr}
	dst := new(Set)
	for _, n := range intoCapacities {
		for _, kx := range kinds {
			for _, ky := range kinds {
				for _, dense := range []bool{false, true} {
					s, sm := operand(rng, n, kx, dense)
					u, um := operand(rng, n, ky, rng.Intn(2) == 0)
					sBefore, uBefore := s.Clone(), u.Clone()
					want := intersectV0(s, u)
					label := labelOf(n, kx, ky, dense)
					count := IntersectInto(dst, s, u)
					checkIntersection(t, label+" reused dst", dst, count, sm, um, want)
					fresh := Intersect(s, u)
					checkIntersection(t, label+" fresh", fresh, fresh.Count(), sm, um, want)
					if !s.Equal(sBefore) || !u.Equal(uBefore) ||
						s.Bytes() != sBefore.Bytes() || u.Bytes() != uBefore.Bytes() {
						t.Fatalf("%s: an operand changed", label)
					}
				}
			}
		}
	}
}

func labelOf(n int, kx, ky uint8, dense bool) string {
	names := []string{"empty", "array", "bitmap"}
	d := "sparse"
	if dense {
		d = "dense"
	}
	return fmt.Sprintf("%sx%s/%s/n=%d", names[kx], names[ky], d, n)
}

// TestIntersectIntoResultKinds pins the container kind of the result
// for each operand-kind pair on fixed operands — the table the
// pre-change Intersect produces — with a fresh dst and with one that
// carries a bitmap payload, which must be dropped.
func TestIntersectIntoResultKinds(t *testing.T) {
	const n = ctrBits
	stride := func(step, lo, hi int) []int {
		var ids []int
		for id := lo; id < hi; id += step {
			ids = append(ids, id)
		}
		return ids
	}
	build := func(ids []int, kind uint8) *Set {
		s := FromIDs(n, ids...)
		switch c := &s.ctrs[0]; kind {
		case arrayCtr:
			c.toArray()
		case bitmapCtr:
			c.toBitmap()
		}
		return s
	}
	evens := stride(2, 0, n)       // 32768 ids
	low := stride(1, 0, 3000)      // 3000 consecutive ids
	few := stride(64, 0, n)        // 1024 ids, the array bound
	odds := stride(2, 1, n)        // disjoint from evens
	block := stride(1, 1000, 1500) // 500 consecutive ids
	cases := []struct {
		name     string
		x        []int
		xk       uint8
		y        []int
		yk       uint8
		want     uint8
		wantCard int
	}{
		{"bitmap x bitmap, dense result", evens, bitmapCtr, low, bitmapCtr, bitmapCtr, 1500},
		{"bitmap x bitmap, result at the array bound", evens, bitmapCtr, few, bitmapCtr, arrayCtr, 1024},
		{"bitmap x bitmap, disjoint", evens, bitmapCtr, odds, bitmapCtr, emptyCtr, 0},
		{"array x bitmap", few, arrayCtr, evens, bitmapCtr, arrayCtr, 1024},
		{"bitmap x array", evens, bitmapCtr, few, arrayCtr, arrayCtr, 1024},
		{"array x array", few, arrayCtr, block, arrayCtr, arrayCtr, 8},
		{"array x array, contiguous", low, arrayCtr, block, arrayCtr, arrayCtr, 500},
		{"array x bitmap, result past the repack bound", low, arrayCtr, evens, bitmapCtr, arrayCtr, 1500},
		{"bitmap x array, sparse result", evens, bitmapCtr, block, arrayCtr, arrayCtr, 250},
		{"array x bitmap, disjoint", block, arrayCtr, stride(1, 2000, 4000), bitmapCtr, emptyCtr, 0},
		{"empty x bitmap", nil, emptyCtr, evens, bitmapCtr, emptyCtr, 0},
		{"bitmap x empty", evens, bitmapCtr, nil, emptyCtr, emptyCtr, 0},
	}
	for _, tc := range cases {
		x, y := build(tc.x, tc.xk), build(tc.y, tc.yk)
		for _, reused := range []bool{false, true} {
			dst := new(Set)
			if reused {
				dst = build(odds, bitmapCtr)
			}
			if got := IntersectInto(dst, x, y); got != tc.wantCard {
				t.Errorf("%s (reused dst=%v): cardinality %d, want %d", tc.name, reused, got, tc.wantCard)
			}
			if got := dst.ctrs[0].kind; got != tc.want {
				t.Errorf("%s (reused dst=%v): kind %d, want %d", tc.name, reused, got, tc.want)
			}
			if want := intersectV0(x, y); dst.Bytes() != want.Bytes() {
				t.Errorf("%s (reused dst=%v): Bytes() %d, want %d", tc.name, reused, dst.Bytes(), want.Bytes())
			}
		}
	}
}

// TestIntersectIntoOtherCapacity: a dst that was a larger set of the
// same container count holds bits past the operands' last span, and the
// span-bounded kernels never reach them — none of them may survive.
func TestIntersectIntoOtherCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 70_000
	s, sm := operand(rng, n, bitmapCtr, true)
	u, um := operand(rng, n, bitmapCtr, true)
	dst := New(2 * ctrBits)
	dst.Fill()
	count := IntersectInto(dst, s, u)
	checkIntersection(t, "dst of capacity 131072", dst, count, sm, um, intersectV0(s, u))
}

// TestIntersectIntoAliasPanics: dst must be distinct from both operands.
func TestIntersectIntoAliasPanics(t *testing.T) {
	s, u := FromIDs(100, 1, 2, 3), FromIDs(100, 2, 3, 4)
	for name, call := range map[string]func(){
		"dst == s": func() { IntersectInto(s, s, u) },
		"dst == t": func() { IntersectInto(u, s, u) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: IntersectInto must panic", name)
				}
			}()
			call()
		}()
		if !s.Equal(FromIDs(100, 1, 2, 3)) || !u.Equal(FromIDs(100, 2, 3, 4)) {
			t.Errorf("%s: an operand changed before the panic", name)
		}
	}
}

// FuzzIntersectInto replays an op sequence over two operand sets of a
// fuzzed capacity — point and range mutations, re-packing — and after
// every op intersects them into one long-lived dst, which must match a
// fresh Intersect in content, kinds and bytes.
func FuzzIntersectInto(f *testing.F) {
	f.Add([]byte{0x00, 0x20, 0x00, 1, 5, 0, 2, 9, 0, 4, 0, 0})
	f.Add([]byte{0x01, 0x11, 0x70, 3, 0, 0, 3, 200, 1, 1, 0, 0, 5, 0, 0, 2, 7, 7})
	f.Add([]byte{0x00, 0x0c, 0x7c, 3, 0, 0, 0, 3, 0, 16, 1, 4, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + (int(data[0])<<16|int(data[1])<<8|int(data[2]))%(3*ctrBits)
		sets := [2]*Set{New(n), New(n)}
		dst := new(Set)
		for ops := data[3:]; len(ops) >= 3; ops = ops[3:] {
			s := sets[ops[0]&1]
			id := (int(ops[1])<<8 | int(ops[2])) * 3 % n
			switch ops[0] >> 1 % 5 {
			case 0:
				s.Add(id)
			case 1:
				s.Remove(id)
			case 2: // a stretch of ids: dense chunks, bitmaps once re-packed
				for k := id; k < n && k < id+1500; k++ {
					s.Add(k)
				}
			case 3:
				s.Optimize()
			case 4:
				s.Fill()
			}
			want := intersectV0(sets[0], sets[1])
			if got := IntersectInto(dst, sets[0], sets[1]); got != want.Count() {
				t.Fatalf("IntersectInto returned %d, Intersect holds %d", got, want.Count())
			}
			if !dst.Equal(want) || dst.Bytes() != want.Bytes() {
				t.Fatalf("result into the long-lived dst differs from Intersect: %d vs %d ids, %d vs %d bytes",
					dst.Count(), want.Count(), dst.Bytes(), want.Bytes())
			}
			for i, k := range kindsOf(want) {
				if dst.ctrs[i].kind != k {
					t.Fatalf("container %d kind %d, Intersect %d", i, dst.ctrs[i].kind, k)
				}
			}
			if got := AndCount(sets[0], sets[1]); got != want.Count() {
				t.Fatalf("AndCount %d, Intersect holds %d", got, want.Count())
			}
		}
	})
}
