package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// --- the oracle ---------------------------------------------------------

// oracle is the independent reference sets are checked against: one bool
// per id of the universe, every operation written the obvious way.
type oracle []bool

func oracleOf(n int, ids []int) oracle {
	o := make(oracle, n)
	for _, id := range ids {
		if id >= 0 && id < n {
			o[id] = true
		}
	}
	return o
}

func (o oracle) ids() []int {
	var out []int
	for id, in := range o {
		if in {
			out = append(out, id)
		}
	}
	return out
}

// combine applies op id by id: the oracle of a binary set operation.
func (o oracle) combine(p oracle, op func(x, y bool) bool) oracle {
	out := make(oracle, len(o))
	for i := range o {
		out[i] = op(o[i], p[i])
	}
	return out
}

func and(x, y bool) bool { return x && y }
func or(x, y bool) bool  { return x || y }
func all(_, _ bool) bool { return true }

// words is the universe in the dense word layout: bit id%64 of word
// id/64, the layout CopyWords writes.
func (o oracle) words() []uint64 {
	w := make([]uint64, (len(o)+wordBits-1)/wordBits)
	for id, in := range o {
		if in {
			w[id/wordBits] |= 1 << (id % wordBits)
		}
	}
	return w
}

// checkOracle asserts s holds exactly o: capacity, ids in ascending
// order, Count, its dense words (CopyWords) and the set FromWords builds
// back from them — s's content in Optimize's encoding — the container
// invariants (valid payloads, no array past arrayMaxCard), and Equal both
// ways against a twin of the same content in every layout — so array and
// bitmap containers are compared with each other — while a twin with one
// id moved (same Count, other content) is unequal.
func checkOracle(t testing.TB, label string, s *Set, o oracle) {
	t.Helper()
	if s.Len() != len(o) {
		t.Fatalf("%s: capacity %d, oracle %d", label, s.Len(), len(o))
	}
	want := o.ids()
	if got := s.IDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: holds %d ids, oracle %d", label, len(got), len(want))
	}
	if s.Count() != len(want) {
		t.Fatalf("%s: Count %d, oracle holds %d", label, s.Count(), len(want))
	}
	words := o.words()
	got := make([]uint64, len(words))
	for i := range got {
		got[i] = ^uint64(0) // CopyWords must overwrite every word
	}
	CopyWords(got, s)
	if !slices.Equal(got, words) {
		t.Fatalf("%s: CopyWords differs from the oracle's dense words", label)
	}
	checkSpans(t, label, s)
	fromWords, optimized := FromWords(len(o), words), s.Clone()
	optimized.Optimize()
	checkSpans(t, label+" FromWords", fromWords)
	if !fromWords.Equal(s) || !slices.Equal(kindsOf(fromWords), kindsOf(optimized)) || fromWords.Bytes() != optimized.Bytes() {
		t.Fatalf("%s: FromWords is not the set in Optimize's encoding", label)
	}
	for _, l := range layouts {
		if x := l.build(len(o), want); !s.Equal(x) || !x.Equal(s) {
			t.Fatalf("%s: Equal to its %s twin is %v / %v, want true both ways", label, l.name, s.Equal(x), x.Equal(s))
		}
	}
	if len(want) > 0 && len(want) < len(o) {
		moved := slices.Clone(want)
		moved[0] = slices.Index(o, false) // one id out, one absent id in
		if x := denseOf(len(o), moved); s.Equal(x) || x.Equal(s) {
			t.Fatalf("%s: Equal holds against a twin with id %d moved to %d", label, want[0], moved[0])
		}
	}
}

// checkSpans asserts the container invariants of s — valid payloads, no
// bit at or past a container's span, no array past arrayMaxCard. The
// bitmap kernels walk only the words a span covers, so a bit past it
// would be an id they silently skip.
func checkSpans(t testing.TB, label string, s *Set) {
	t.Helper()
	for i := range s.ctrs {
		c := &s.ctrs[i]
		if err := c.validate(s.span(i)); err != nil {
			t.Fatalf("%s: container %d: %v", label, i, err)
		}
		if c.kind == arrayCtr && c.card > arrayMaxCard {
			t.Fatalf("%s: container %d is an array of %d ids, bound %d", label, i, c.card, arrayMaxCard)
		}
	}
}

// validate checks the container's structural invariants against its
// span.
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
		if span < ctrBits && (c.b[span>>6]>>(span&63) != 0 || bitmapCard(c.b[span>>6+1:]) != 0) {
			return fmt.Errorf("bitset: bitmap container has bits beyond span %d", span)
		}
		if got := bitmapCard(c.b); got != c.card {
			return fmt.Errorf("bitset: bitmap container card %d != %d set bits", c.card, got)
		}
	default:
		return fmt.Errorf("bitset: unknown container kind %d", c.kind)
	}
	return nil
}

// layouts build one content in each container layout a Set reaches: as
// Add leaves it, re-packed by Optimize (bitmaps past 1024 ids), and from
// newDense (bitmaps whatever the density). Like FromIDs, each drops ids
// outside [0, n).
var layouts = []struct {
	name  string
	build func(n int, ids []int) *Set
}{
	{"added", func(n int, ids []int) *Set { return FromIDs(n, ids...) }},
	{"optimized", func(n int, ids []int) *Set {
		s := FromIDs(n, ids...)
		s.Optimize()
		return s
	}},
	{"dense", denseOf},
}

// newDense returns an empty Set of capacity n whose containers start as
// bitmaps. Add never demotes a bitmap, so a set filled by Add keeps the
// all-bitmap layout whatever its density: the bitmap twin of every
// content the oracle tests build.
func newDense(n int) *Set {
	s := New(n)
	for i := range s.ctrs {
		s.ctrs[i].toBitmap()
	}
	return s
}

// denseOf is FromIDs over a newDense set.
func denseOf(n int, ids []int) *Set {
	s := newDense(n)
	for _, id := range ids {
		if id >= 0 && id < n {
			s.Add(id)
		}
	}
	return s
}

// randomIDs draws ids at the given density; clustered draws contiguous
// blocks instead of points, filling whole bitmap words.
func randomIDs(rng *rand.Rand, n int, density float64, clustered bool) []int {
	want := int(float64(n) * density)
	var ids []int
	if clustered {
		for len(ids) < want {
			start := rng.Intn(n)
			blk := 1 + rng.Intn(200)
			for i := start; i < n && i < start+blk; i++ {
				ids = append(ids, i)
			}
		}
	} else {
		for i := 0; i < want; i++ {
			ids = append(ids, rng.Intn(n))
		}
	}
	return ids
}

// --- Add/Remove/FromIDs range contract --------------------------------

func TestAddOutOfRangePanics(t *testing.T) {
	for _, id := range []int{-1, -1000, 10, 11, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) on capacity 10 must panic", id)
				}
			}()
			New(10).Add(id)
		}()
	}
}

func TestRemoveOutOfRangePanics(t *testing.T) {
	for _, id := range []int{-1, -64, 10, 64, 1 << 18} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Remove(%d) on capacity 10 must panic", id)
				}
			}()
			New(10).Remove(id)
		}()
	}
}

// TestNegativeIDNeverAliases pins the nastiest part of the old contract:
// a negative id must never silently alias another record id (a plain
// word array's -1 would index word 0 bit 63, i.e. Add(-1) adding id 63).
func TestNegativeIDNeverAliases(t *testing.T) {
	s := New(128)
	func() {
		defer func() { _ = recover() }()
		s.Add(-1)
	}()
	if s.Count() != 0 {
		t.Fatalf("Add(-1) mutated the set: %v", s)
	}
	if FromIDs(128, -1).Contains(63) {
		t.Fatal("FromIDs(-1) aliased id 63")
	}
}

// TestContractAgreesAcrossModes: the range contract is the same in every
// layout: ids outside [0, Len()) are dropped by the filtering
// constructors, reported absent by Contains, and panic in Add and Remove
// without touching the set.
func TestContractAgreesAcrossModes(t *testing.T) {
	ids := []int{1, 3, 9, -2, 7}
	want := oracleOf(8, ids)
	for _, l := range layouts {
		s := l.build(8, ids)
		checkOracle(t, l.name, s, want)
		for _, id := range []int{-2, 8, 9} {
			if s.Contains(id) {
				t.Errorf("%s: Contains(%d) on capacity 8", l.name, id)
			}
			for name, op := range map[string]func(int){"Add": s.Add, "Remove": s.Remove} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s(%d) on capacity 8 must panic", l.name, name, id)
						}
					}()
					op(id)
				}()
			}
		}
		checkOracle(t, l.name+" after refused mutations", s, want)
	}
}

// --- equivalence with the oracle --------------------------------------

// TestHybridDenseEquivalence holds the container sets to the dense
// []bool oracle across densities, clustered and scattered content, and
// every pair of operand layouts: the binary algebra, functional and in
// place, the scalar queries, iteration, Fill, and the delta layer's
// CloneGrown followed by mutation.
func TestHybridDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	densities := []float64{0.0005, 0.01, 0.2, 0.8}
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(200_000) // spans multiple containers
		dens := densities[trial%len(densities)]
		clustered := trial%2 == 0
		idsA := randomIDs(rng, n, dens, clustered)
		idsB := randomIDs(rng, n, densities[(trial+1)%len(densities)], !clustered)
		la, lb := layouts[trial%len(layouts)], layouts[trial/len(layouts)%len(layouts)]
		label := fmt.Sprintf("trial %d (n=%d dens=%g clustered=%v %s x %s)", trial, n, dens, clustered, la.name, lb.name)

		a, b := la.build(n, idsA), lb.build(n, idsB)
		oa, ob := oracleOf(n, idsA), oracleOf(n, idsB)
		checkOracle(t, label+" a", a, oa)
		checkOracle(t, label+" b", b, ob)

		// Binary set algebra, functional and in-place, both ways round.
		checkOracle(t, label+" Intersect", Intersect(a, b), oa.combine(ob, and))
		for _, op := range []struct {
			name string
			run  func(s, o *Set)
			want func(x, y bool) bool
		}{
			{"And", (*Set).And, and},
			{"Or", (*Set).Or, or},
		} {
			c := a.Clone()
			op.run(c, b)
			checkOracle(t, label+" a."+op.name+"(b)", c, oa.combine(ob, op.want))
			c = b.Clone()
			op.run(c, a)
			checkOracle(t, label+" b."+op.name+"(a)", c, ob.combine(oa, op.want))
		}
		checkOracle(t, label+" a after the algebra", a, oa)
		checkOracle(t, label+" b after the algebra", b, ob)

		// Scalar queries.
		inter := len(oa.combine(ob, and).ids())
		if AndCount(a, b) != inter || AndCount(b, a) != inter {
			t.Fatalf("%s: AndCount %d / %d, oracle %d", label, AndCount(a, b), AndCount(b, a), inter)
		}
		if a.SubsetOf(b) != (inter == len(oa.ids())) || b.SubsetOf(a) != (inter == len(ob.ids())) {
			t.Fatalf("%s: SubsetOf diverges from the oracle", label)
		}
		if a.IntersectsWords(ob.words()) != (inter > 0) || b.IntersectsWords(oa.words()) != (inter > 0) {
			t.Fatalf("%s: IntersectsWords = %v / %v, oracle intersection holds %d",
				label, a.IntersectsWords(ob.words()), b.IntersectsWords(oa.words()), inter)
		}
		for i := 0; i < 50; i++ {
			if id := rng.Intn(n); a.Contains(id) != oa[id] {
				t.Fatalf("%s: Contains(%d) = %v", label, id, a.Contains(id))
			}
		}
		checkSpans(t, label+" a after the scalar queries", a)
		checkSpans(t, label+" b after the scalar queries", b)

		// ForEach order and early stop.
		var seen []int
		a.ForEach(func(id int) bool { seen = append(seen, id); return len(seen) < 7 })
		if want := oa.ids(); !slices.Equal(seen, want[:min(7, len(want))]) {
			t.Fatalf("%s: ForEach early-stop prefix %v, oracle %v", label, seen, want[:min(7, len(want))])
		}
		checkSpans(t, label+" a after ForEach", a)

		// Fill.
		c := a.Clone()
		c.Fill()
		checkOracle(t, label+" Fill", c, oa.combine(oa, all))

		// CloneGrown (the delta ingestion path), then mutation.
		grown := n + 1 + rng.Intn(1000)
		g, og := a.CloneGrown(grown), append(slices.Clone(oa), make(oracle, grown-n)...)
		checkOracle(t, label+" CloneGrown", g, og)
		for i := 0; i < 20 && len(idsA) > 0; i++ {
			id := idsA[rng.Intn(len(idsA))]
			g.Remove(id)
			og[id] = false
			add := n + rng.Intn(grown-n)
			g.Add(add)
			og[add] = true
		}
		checkOracle(t, label+" CloneGrown mutated", g, og)
	}
}

// TestHybridMutationSequence drives a long random Add/Remove/Optimize
// sequence through a set that starts empty and one that starts from
// newDense, crossing the promotion and demotion thresholds repeatedly,
// and holds both to the oracle along the way.
func TestHybridMutationSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 3 * ctrBits / 2 // one full container plus a partial one
	sets := map[string]*Set{"new": New(n), "dense": newDense(n)}
	o := make(oracle, n)
	for step := 0; step < 40_000; step++ {
		id := rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			for _, s := range sets {
				s.Remove(id)
			}
			o[id] = false
		case 4:
			if step%1000 == 0 {
				for _, s := range sets {
					s.Optimize()
				}
			}
		default:
			for _, s := range sets {
				s.Add(id)
			}
			o[id] = true
		}
		if step%10_000 == 0 || step == 40_000-1 {
			for name, s := range sets {
				checkOracle(t, fmt.Sprintf("%s at step %d", name, step), s, o)
			}
		}
	}
}

// TestContainerPromotionDemotion inspects the internal kinds directly:
// arrays must promote past arrayMaxCard, bitmaps must demote back, Fill
// must produce bitmaps (arrays for a span within arrayOptCard), and
// Optimize must pick the encoding by cardinality.
func TestContainerPromotionDemotion(t *testing.T) {
	s := New(ctrBits)
	for i := 0; i < arrayMaxCard; i++ {
		s.Add(2 * i)
	}
	if got := s.ctrs[0].kind; got != arrayCtr {
		t.Fatalf("at %d ids kind = %d, want array", arrayMaxCard, got)
	}
	s.Add(2*arrayMaxCard + 1)
	if got := s.ctrs[0].kind; got != bitmapCtr {
		t.Fatalf("past %d ids kind = %d, want bitmap (promotion)", arrayMaxCard, got)
	}
	// Demotion is hysteretic and time-aware: dropping just below the
	// promotion bound keeps the bitmap; only at arrayOptCard does the
	// container fall back to array form.
	s.Remove(2*arrayMaxCard + 1)
	if got := s.ctrs[0].kind; got != bitmapCtr {
		t.Fatalf("just under promotion bound kind = %d, want bitmap (hysteresis)", got)
	}
	for i := arrayMaxCard - 1; i >= arrayOptCard; i-- {
		s.Remove(2 * i)
	}
	if got := s.ctrs[0].kind; got != arrayCtr {
		t.Fatalf("at %d ids kind = %d, want array (demotion)", arrayOptCard, s.ctrs[0].kind)
	}

	// Fill writes bitmaps: the full first container and the 34 464-id
	// tail alike. Only a span within the array bound is an array.
	f := New(100_000)
	f.Fill()
	if k0, k1 := f.ctrs[0].kind, f.ctrs[1].kind; k0 != bitmapCtr || k1 != bitmapCtr {
		t.Fatalf("Fill kinds = %d, %d, want bitmaps", k0, k1)
	}
	if f.Count() != 100_000 {
		t.Fatalf("Fill count = %d", f.Count())
	}
	small := New(ctrBits + arrayOptCard)
	small.Fill()
	if small.ctrs[1].kind != arrayCtr {
		t.Fatalf("Fill of a %d-id span kind = %d, want array", arrayOptCard, small.ctrs[1].kind)
	}

	// Optimize turns an array in the promotion band into a bitmap...
	c := New(ctrBits)
	for i := 10_000; i < 12_000; i++ {
		c.Add(i)
	}
	if got := c.ctrs[0].kind; got != arrayCtr {
		t.Fatalf("2000 added ids kind = %d, want array (below the promotion bound)", got)
	}
	c.Optimize()
	if got := c.ctrs[0].kind; got != bitmapCtr {
		t.Fatalf("2000-id Optimize kind = %d, want bitmap", got)
	}
	// ...and keeps arrays for sparse content.
	p := New(ctrBits)
	for i := 0; i < 100; i++ {
		p.Add(i * 601)
	}
	p.Optimize()
	if got := p.ctrs[0].kind; got != arrayCtr {
		t.Fatalf("scattered Optimize kind = %d, want array", got)
	}
}

// --- footprint ---------------------------------------------------------

// TestHybridBytesWinOnSparse pins the point of the containers: a sparse
// tidset over a large universe must take far less memory packed than in
// newDense's all-bitmap layout.
func TestHybridBytesWinOnSparse(t *testing.T) {
	n := 1 << 20
	ids := make([]int, 200)
	for i := range ids {
		ids[i] = i * 4999
	}
	d := denseOf(n, ids)
	h := FromIDs(n, ids...)
	h.Optimize()
	if d.Bytes() < n/8 {
		t.Fatalf("dense Bytes() = %d, want >= %d (allocates the universe)", d.Bytes(), n/8)
	}
	if h.Bytes() > d.Bytes()/20 {
		t.Fatalf("packed Bytes() = %d, want at least 20x below dense %d", h.Bytes(), d.Bytes())
	}
}

// --- fuzzing ----------------------------------------------------------

// fuzzCapacities straddle the container boundaries: a single id, one
// word, just past the array bound, exactly one container, one and a
// partial, two and one id — then the chess and mushroom universes (3196
// and 8124 ids), whose last words are partial. New capacities go last so
// the seeds keep the capacities they were written for.
var fuzzCapacities = []int{1, 64, 4097, 65536, 70000, 131073, 3196, 8124}

// FuzzSetOps replays a byte-driven op sequence over two sets — Add,
// Remove, a stretch of Adds, And, Or, Fill, Optimize, Intersect, and
// a rebuild of one set from newDense — and
// after every op holds both sets, and Intersect's result, to the
// oracle (see checkOracle, which also asserts checkSpans). The first
// byte picks the capacity; each op is three bytes: which set and which
// op, then an id.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 2})
	f.Add([]byte{3, 4, 0, 9, 2, 0, 9, 6, 1, 1, 18, 0, 0, 20, 0, 0})
	f.Add([]byte{4, 4, 1, 0, 5, 2, 0, 16, 0, 0, 12, 0, 0, 8, 0, 0, 14, 0, 0})
	f.Add([]byte{5, 4, 255, 255, 5, 0, 100, 10, 0, 0, 11, 0, 0, 7, 0, 0, 18, 0, 0, 2, 3, 3})
	f.Add([]byte{2, 14, 0, 0, 3, 0, 7, 20, 0, 0, 6, 0, 0, 16, 0, 0})
	f.Add([]byte{6, 4, 0, 0, 5, 1, 0, 10, 0, 0, 6, 0, 0, 14, 0, 0, 7, 0, 0})
	f.Add([]byte{7, 5, 0, 0, 4, 1, 0, 12, 0, 0, 8, 0, 0, 14, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		sets := [2]*Set{New(n), New(n)}
		refs := [2]oracle{make(oracle, n), make(oracle, n)}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			i := int(ops[0] & 1)
			s, o, other := sets[i], refs[i], sets[1-i]
			id := (int(ops[1])<<8 | int(ops[2])) * 7 % n
			op := int(ops[0]>>1) % 9
			switch op {
			case 0:
				s.Add(id)
				o[id] = true
			case 1:
				s.Remove(id)
				o[id] = false
			case 2: // a stretch: dense chunks, bitmaps once re-packed
				for k := id; k < n && k < id+1500; k++ {
					s.Add(k)
					o[k] = true
				}
			case 3:
				s.And(other)
				refs[i] = o.combine(refs[1-i], and)
			case 4:
				s.Or(other)
				refs[i] = o.combine(refs[1-i], or)
			case 5:
				s.Fill()
				refs[i] = o.combine(o, all)
			case 6:
				s.Optimize()
			case 7:
				checkOracle(t, "Intersect result", Intersect(s, other), o.combine(refs[1-i], and))
			case 8:
				sets[i] = denseOf(n, o.ids())
			}
			for k := range sets {
				checkOracle(t, fmt.Sprintf("set %d after op %d", k, op), sets[k], refs[k])
			}
		}
	})
}
