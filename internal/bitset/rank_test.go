package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rankOracle is RankAnd written the obvious way over the []bool oracle:
// walk s's ids ascending, and set bit r when the r-th one is in t.
func rankOracle(s, t oracle) (vec []uint64, n int) {
	r := 0
	for id, in := range s {
		if !in {
			continue
		}
		if r%wordBits == 0 {
			vec = append(vec, 0)
		}
		if t[id] {
			vec[r/wordBits] |= 1 << (r % wordBits)
			n++
		}
		r++
	}
	return vec, n
}

// checkRankAnd runs RankAnd into a dst one word longer than the rank
// space, pre-filled with ones, and holds it to rankOracle: the rank-space
// words equal the oracle's (so no bit at or past |s| is set), the count
// is |s ∩ t|, and the word past the rank space is untouched.
func checkRankAnd(t testing.TB, label string, s, u *Set, so, uo oracle) {
	t.Helper()
	want, wantN := rankOracle(so, uo)
	dst := make([]uint64, len(want)+1)
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if n := RankAnd(dst, s, u); n != wantN {
		t.Fatalf("%s: RankAnd = %d, oracle |s ∩ t| = %d", label, n, wantN)
	}
	for w := range want {
		if dst[w] != want[w] {
			t.Fatalf("%s: word %d of %d is %#x, oracle %#x", label, w, len(want), dst[w], want[w])
		}
	}
	if dst[len(want)] != ^uint64(0) {
		t.Fatalf("%s: RankAnd wrote past its %d words", label, len(want))
	}
}

// withKind re-encodes every non-empty container of s as kind — an array
// at any cardinality, which the kernels must handle although no
// mutation leaves one past arrayMaxCard.
func withKind(s *Set, kind uint8) *Set {
	for i := range s.ctrs {
		if s.ctrs[i].card == 0 {
			continue
		}
		if kind == arrayCtr {
			s.ctrs[i].toArray()
		} else {
			s.ctrs[i].toBitmap()
		}
	}
	return s
}

// TestRankAndKindPairs holds RankAnd to the oracle for every pair of
// container kinds (empty, array, bitmap), sparse and dense, over
// universes that end mid-word, exactly fill a container, and span two
// and three containers.
func TestRankAndKindPairs(t *testing.T) {
	kinds := []uint8{emptyCtr, arrayCtr, bitmapCtr}
	for _, n := range []int{1, 63, 3196, ctrBits, 70000, 2*ctrBits + 77} {
		for _, kx := range kinds {
			for _, ky := range kinds {
				for _, dense := range []bool{false, true} {
					rng := rand.New(rand.NewSource(int64(n)))
					s, sm := operand(rng, n, kx, dense)
					u, um := operand(rng, n, ky, !dense)
					so, uo := make(oracle, n), make(oracle, n)
					for id := range sm {
						so[id] = true
					}
					for id := range um {
						uo[id] = true
					}
					checkRankAnd(t, fmt.Sprintf("n=%d kinds %d×%d dense=%v", n, kx, ky, dense), s, u, so, uo)
				}
			}
		}
	}
}

// FuzzRankAnd replays a byte-driven op sequence over two sets — Add,
// Remove, a stretch of Adds, Fill — and after every op holds RankAnd of
// either order to the oracle, with each operand's containers re-encoded
// as the op's byte picks: as built, all arrays or all bitmaps. So every
// container-kind pair is reached, over capacities past 2^16 ids and
// rank spaces that end mid-word. The first byte picks the capacity; each
// op is three bytes: the set, the op and the encodings, then an id.
func FuzzRankAnd(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{6, 4, 0, 9, 5, 0, 40, 0x12, 1, 1, 0x1a, 0, 0})
	f.Add([]byte{3, 4, 0, 0, 5, 255, 255, 0x0c, 3, 3, 0x20, 0, 0, 0x1b, 9, 9})
	f.Add([]byte{5, 4, 1, 0, 5, 200, 1, 0x0e, 0, 0, 0x11, 50, 50, 0x28, 7, 0})
	f.Add([]byte{4, 6, 0, 0, 7, 0, 0, 0x11, 2, 2, 0x22, 4, 4, 0x18, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		sets := [2]*Set{New(n), New(n)}
		refs := [2]oracle{make(oracle, n), make(oracle, n)}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			i := int(ops[0] & 1)
			s, o := sets[i], refs[i]
			id := (int(ops[1])<<8 | int(ops[2])) * 7 % n
			switch ops[0] >> 1 & 3 {
			case 0:
				s.Add(id)
				o[id] = true
			case 1:
				s.Remove(id)
				o[id] = false
			case 2:
				for k := id; k < n && k < id+1500; k++ {
					s.Add(k)
					o[k] = true
				}
			case 3:
				s.Fill()
				refs[i] = o.combine(o, all)
			}
			enc := ops[0] >> 3
			for k := range sets {
				switch (enc >> (2 * k)) % 3 {
				case 1:
					withKind(sets[k], arrayCtr)
				case 2:
					withKind(sets[k], bitmapCtr)
				}
			}
			checkRankAnd(t, "s, t", sets[0], sets[1], refs[0], refs[1])
			checkRankAnd(t, "t, s", sets[1], sets[0], refs[1], refs[0])
		}
	})
}

// BenchmarkRankAnd times one ELIMINATE vector build — a 10 % focal
// subset against one item tidset — at the chess and mushroom universes
// and one full container, over the kind pairs a build meets: a bitmap or
// array D^Q against a frequent (bitmap, 60 %) or rare (array, 1 %) item.
func BenchmarkRankAnd(b *testing.B) {
	for _, n := range []int{3196, 8124, ctrBits} {
		for _, pair := range []struct {
			name   string
			dq, it uint8
			dqFrac float64 // D^Q's share of the universe
		}{
			{"bitmap×bitmap", bitmapCtr, bitmapCtr, 0.1},
			{"bitmap×array", bitmapCtr, arrayCtr, 0.1},
			{"array×bitmap", arrayCtr, bitmapCtr, 0.1},
			{"array×array", arrayCtr, arrayCtr, 0.1},
			// A large subset: most of D^Q's words are full, the identity
			// rank map.
			{"dense-bitmap×bitmap", bitmapCtr, bitmapCtr, 0.9},
		} {
			rng := rand.New(rand.NewSource(37))
			dq := New(n)
			for _, id := range randomIDs(rng, n, pair.dqFrac, true) {
				dq.Add(id)
			}
			density := 0.6 // a frequent item's tidset is a bitmap, a rare one's an array
			if pair.it == arrayCtr {
				density = 0.01
			}
			it := New(n)
			for _, id := range randomIDs(rng, n, density, false) {
				it.Add(id)
			}
			withKind(dq, pair.dq)
			withKind(it, pair.it)
			dst := make([]uint64, (dq.Count()+wordBits-1)/wordBits)
			b.Run(fmt.Sprintf("n=%d/%s", n, pair.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					andCounted = RankAnd(dst, dq, it)
				}
				b.ReportMetric(float64(len(dst)), "words")
			})
		}
	}
}

// TestIntersectsWordsKindPairs holds IntersectsWords to the oracle with
// s's containers in each encoding, against vectors that miss s entirely
// (its complement, thinned) and that share exactly one id with it —
// first, last or anywhere — over universes that end mid-word, exactly
// fill a container, and span two and three containers: a hit in any
// container, and a miss that must walk all of them.
func TestIntersectsWordsKindPairs(t *testing.T) {
	for _, n := range []int{1, 63, 3196, ctrBits, 70000, 2*ctrBits + 77} {
		for _, kind := range []uint8{arrayCtr, bitmapCtr} {
			for _, dense := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(n) + int64(kind)))
				s, sm := operand(rng, n, kind, dense)
				so := make(oracle, n)
				for id := range sm {
					so[id] = true
				}
				miss := make(oracle, n)
				for id := range miss {
					miss[id] = !so[id] && rng.Intn(3) > 0
				}
				label := fmt.Sprintf("n=%d kind %d dense=%v", n, kind, dense)
				if s.IntersectsWords(miss.words()) {
					t.Fatalf("%s: IntersectsWords hits a vector disjoint from s", label)
				}
				ids := so.ids()
				if len(ids) == 0 {
					continue
				}
				for _, shared := range []int{ids[0], ids[len(ids)-1], ids[rng.Intn(len(ids))]} {
					hit := slices.Clone(miss)
					hit[shared] = true
					if !s.IntersectsWords(hit.words()) {
						t.Fatalf("%s: IntersectsWords misses shared id %d", label, shared)
					}
				}
			}
		}
	}
}
