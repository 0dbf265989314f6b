package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// intersectV0 is Intersect written the obvious way, kept as the
// reference the count-first kernel is pinned against: the result of
// Intersect must have the encoding and payload size this produces.
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

// checkIntersection compares got (the result of Intersect) against the
// map oracle and against the pre-change kernel: content, container kinds
// and payload bytes.
func checkIntersection(t *testing.T, label string, got *Set, sm, tm map[int]bool, want *Set) {
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
	if got.Count() != n {
		t.Fatalf("%s: Count() %d, oracle %d", label, got.Count(), n)
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

var intersectCapacities = []int{1, 64, 65, 3196, 8124, 65536, 70000}

// TestIntersectAllKindPairs intersects every pair of operand container
// kinds, at every capacity and two densities, and leaves both operands
// as they were.
func TestIntersectAllKindPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []uint8{emptyCtr, arrayCtr, bitmapCtr}
	for _, n := range intersectCapacities {
		for _, kx := range kinds {
			for _, ky := range kinds {
				for _, dense := range []bool{false, true} {
					s, sm := operand(rng, n, kx, dense)
					u, um := operand(rng, n, ky, rng.Intn(2) == 0)
					sBefore, uBefore := s.Clone(), u.Clone()
					want := intersectV0(s, u)
					label := labelOf(n, kx, ky, dense)
					checkIntersection(t, label, Intersect(s, u), sm, um, want)
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

// TestIntersectResultKinds pins the container kind of the result for
// each operand-kind pair on fixed operands — the table the pre-change
// Intersect produces.
func TestIntersectResultKinds(t *testing.T) {
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
		r := Intersect(x, y)
		if got := r.Count(); got != tc.wantCard {
			t.Errorf("%s: cardinality %d, want %d", tc.name, got, tc.wantCard)
		}
		if got := r.ctrs[0].kind; got != tc.want {
			t.Errorf("%s: kind %d, want %d", tc.name, got, tc.want)
		}
		if want := intersectV0(x, y); r.Bytes() != want.Bytes() {
			t.Errorf("%s: Bytes() %d, want %d", tc.name, r.Bytes(), want.Bytes())
		}
	}
}
