package bitset

import (
	"encoding/binary"
	"testing"
)

// legacyRunStream encodes a set of capacity n whose containers before the
// last are empty and whose last container is one legacy run record over
// the given [start,last] pairs — the record earlier writers emitted for
// clustered containers.
func legacyRunStream(n int, pairs ...uint16) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, hybridMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for range numCtrs(n) - 1 {
		buf = append(buf, emptyCtr)
	}
	buf = append(buf, legacyRunKind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pairs)/2))
	for _, v := range pairs {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	return buf
}

// legacyRunIDs lists the ids a legacy run stream of capacity n covers.
func legacyRunIDs(n int, pairs ...uint16) []int {
	base := (numCtrs(n) - 1) * ctrBits
	var ids []int
	for i := 0; i < len(pairs); i += 2 {
		for v := int(pairs[i]); v <= int(pairs[i+1]); v++ {
			ids = append(ids, base+v)
		}
	}
	return ids
}

// legacyRuns are the hand-written run records FuzzUnmarshalBinary's
// corpus starts from, with the kind each must decode to.
var legacyRuns = []struct {
	name  string
	n     int
	pairs []uint16
	want  uint8
}{
	{"full span", ctrBits, []uint16{0, ctrBits - 1}, bitmapCtr},
	{"two runs", 5000, []uint16{10, 20, 100, 3000}, bitmapCtr},
	{"run ending at span-1", 70_000, []uint16{4400, 70_000 - ctrBits - 1}, arrayCtr},
}

// TestUnmarshalLegacyRuns: a legacy run record decodes to the ids its
// runs cover, held in the array or bitmap its cardinality picks.
func TestUnmarshalLegacyRuns(t *testing.T) {
	for _, tc := range legacyRuns {
		s := &Set{}
		if err := s.UnmarshalBinary(legacyRunStream(tc.n, tc.pairs...)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := legacyRunIDs(tc.n, tc.pairs...)
		checkOracle(t, tc.name, s, oracleOf(tc.n, want))
		if got := s.ctrs[len(s.ctrs)-1].kind; got != tc.want {
			t.Fatalf("%s: %d ids decoded to kind %d, want %d", tc.name, len(want), got, tc.want)
		}
	}
}

// FuzzUnmarshalBinary feeds arbitrary streams to the decoder. Every
// stream is either refused, or decodes to a set whose containers are
// valid arrays, bitmaps or empties — never a run — and whose
// MarshalBinary output decodes back to an equal set.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, tc := range legacyRuns {
		f.Add(legacyRunStream(tc.n, tc.pairs...))
	}
	for _, s := range []*Set{FromIDs(100_000, 1, 2, 3, 70_000), denseOf(4097, []int{0, 64, 4096})} {
		data, _ := s.MarshalBinary()
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Set{}
		if s.UnmarshalBinary(data) != nil {
			return
		}
		for i := range s.ctrs {
			c := &s.ctrs[i]
			if err := c.validate(s.span(i)); err != nil {
				t.Fatalf("container %d: %v", i, err)
			}
			if c.kind != emptyCtr && c.kind != arrayCtr && c.kind != bitmapCtr {
				t.Fatalf("container %d decoded as kind %d", i, c.kind)
			}
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back := &Set{}
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-decoding the marshalled set: %v", err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip holds %d ids, decoded set %d", back.Count(), s.Count())
		}
	})
}
