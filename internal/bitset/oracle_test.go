package bitset

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
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

func and(x, y bool) bool    { return x && y }
func or(x, y bool) bool     { return x || y }
func andNot(x, y bool) bool { return x && !y }
func not(x, _ bool) bool    { return !x }
func all(_, _ bool) bool    { return true }

// hash folds the universe's dense 64-bit words into an FNV state, the
// value Set.Hash is defined to return whatever encoding holds the ids.
func (o oracle) hash() uint64 {
	h := uint64(fnvOffset)
	for w := 0; w < len(o); w += wordBits {
		var word uint64
		for b := 0; b < wordBits && w+b < len(o); b++ {
			if o[w+b] {
				word |= 1 << b
			}
		}
		h = (h ^ word) * fnvPrime
	}
	return h
}

// checkOracle asserts s holds exactly o: capacity, ids in ascending
// order, Count, IsEmpty, Hash, a MarshalBinary round trip, the container
// invariants (valid payloads, no array past arrayMaxCard), and Equal both
// ways against a twin of the same content in every layout — so array,
// run and bitmap containers are compared with each other — while a twin
// with one id moved (same Count, other content) is unequal.
func checkOracle(t testing.TB, label string, s *Set, o oracle) {
	t.Helper()
	if s.Len() != len(o) {
		t.Fatalf("%s: capacity %d, oracle %d", label, s.Len(), len(o))
	}
	want := o.ids()
	if got := s.IDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: holds %d ids, oracle %d", label, len(got), len(want))
	}
	if s.Count() != len(want) || s.IsEmpty() != (len(want) == 0) {
		t.Fatalf("%s: Count %d / IsEmpty %v, oracle holds %d", label, s.Count(), s.IsEmpty(), len(want))
	}
	if s.Hash() != o.hash() {
		t.Fatalf("%s: Hash %x, the oracle's dense words hash to %x", label, s.Hash(), o.hash())
	}
	for i := range s.ctrs {
		c := &s.ctrs[i]
		if err := c.validate(s.span(i)); err != nil {
			t.Fatalf("%s: container %d: %v", label, i, err)
		}
		if c.kind == arrayCtr && c.card > arrayMaxCard {
			t.Fatalf("%s: container %d is an array of %d ids, bound %d", label, i, c.card, arrayMaxCard)
		}
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	back := &Set{}
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("%s: unmarshal: %v", label, err)
	}
	if !back.Equal(s) || back.Hash() != s.Hash() || back.Len() != s.Len() {
		t.Fatalf("%s: MarshalBinary round trip diverged", label)
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

// layouts build one content in each container layout a Set reaches: as
// Add leaves it, re-packed by Optimize (runs where clustered), and from
// NewDense (bitmaps whatever the density). Like FromIDs, each drops ids
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

// denseOf is FromIDs over a NewDense set.
func denseOf(n int, ids []int) *Set {
	s := NewDense(n)
	for _, id := range ids {
		if id >= 0 && id < n {
			s.Add(id)
		}
	}
	return s
}

// randomIDs draws ids at the given density; clustered draws contiguous
// blocks instead of points, exercising the run encoding.
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
	if !s.IsEmpty() {
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
// place, the scalar queries, iteration, Complement/Fill/Clear, and the
// delta layer's CloneGrown followed by mutation.
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
		checkOracle(t, label+" Union", Union(a, b), oa.combine(ob, or))
		checkOracle(t, label+" Difference", Difference(a, b), oa.combine(ob, andNot))
		for _, op := range []struct {
			name string
			run  func(s, o *Set)
			want func(x, y bool) bool
		}{
			{"And", (*Set).And, and},
			{"Or", (*Set).Or, or},
			{"AndNot", (*Set).AndNot, andNot},
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
		if a.Intersects(b) != (inter > 0) {
			t.Fatalf("%s: Intersects = %v, oracle intersection holds %d", label, a.Intersects(b), inter)
		}
		for i := 0; i < 50; i++ {
			if id := rng.Intn(n); a.Contains(id) != oa[id] {
				t.Fatalf("%s: Contains(%d) = %v", label, id, a.Contains(id))
			}
		}

		// ForEach order and early stop.
		var seen []int
		a.ForEach(func(id int) bool { seen = append(seen, id); return len(seen) < 7 })
		if want := oa.ids(); !slices.Equal(seen, want[:min(7, len(want))]) {
			t.Fatalf("%s: ForEach early-stop prefix %v, oracle %v", label, seen, want[:min(7, len(want))])
		}

		// Complement / Fill / Clear.
		c := a.Clone()
		c.Complement()
		checkOracle(t, label+" Complement", c, oa.combine(oa, not))
		c.Fill()
		checkOracle(t, label+" Fill", c, oa.combine(oa, all))
		c.Clear()
		checkOracle(t, label+" Clear", c, make(oracle, n))

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
// NewDense, crossing the promotion and demotion thresholds repeatedly,
// and holds both to the oracle along the way.
func TestHybridMutationSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 3 * ctrBits / 2 // one full container plus a partial one
	sets := map[string]*Set{"new": New(n), "dense": NewDense(n)}
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
// must produce runs, and Optimize must pick the cheapest encoding.
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

	f := New(100_000)
	f.Fill()
	if got := f.ctrs[0].kind; got != runCtr {
		t.Fatalf("Fill kind = %d, want run", got)
	}
	if f.Count() != 100_000 {
		t.Fatalf("Fill count = %d", f.Count())
	}

	// Optimize picks runs for clustered content...
	c := New(ctrBits)
	for i := 10_000; i < 30_000; i++ {
		c.Add(i)
	}
	c.Optimize()
	if got := c.ctrs[0].kind; got != runCtr {
		t.Fatalf("clustered Optimize kind = %d, want run", got)
	}
	// ...and arrays for scattered sparse content.
	p := New(ctrBits)
	for i := 0; i < 100; i++ {
		p.Add(i * 601)
	}
	p.Optimize()
	if got := p.ctrs[0].kind; got != arrayCtr {
		t.Fatalf("scattered Optimize kind = %d, want array", got)
	}
}

// TestNewDenseKeepsBitmaps pins what the cost model's calibration
// (cost.MeasureUnits) normalises its per-word unit against: a NewDense
// set filled by strided Adds keeps every container a bitmap, and reading
// it with AndCount and Contains re-encodes nothing — though the same
// content built by New packs into arrays.
func TestNewDenseKeepsBitmaps(t *testing.T) {
	for _, m := range []int{4000, 70_000} {
		a, b := NewDense(m), NewDense(m)
		for i := 0; i < m; i += 3 {
			a.Add(i)
		}
		for i := 0; i < m; i += 2 {
			b.Add(i)
		}
		AndCount(a, b)
		a.Contains(1)
		b.Contains(1)
		for name, s := range map[string]*Set{"stride 3": a, "stride 2": b} {
			for i := range s.ctrs {
				if s.ctrs[i].kind != bitmapCtr {
					t.Fatalf("m=%d %s: container %d has kind %d, want bitmap", m, name, i, s.ctrs[i].kind)
				}
			}
		}
		if p := FromIDs(m, a.IDs()...); m == 4000 && p.ctrs[0].kind != arrayCtr {
			t.Fatalf("New packs a stride-3 fill of %d into kind %d, want array: the fixture no longer tells the layouts apart", m, p.ctrs[0].kind)
		}
	}
}

// --- serialization ----------------------------------------------------

// v2Bytes encodes ids in the pre-container dense binary format (capacity
// + words), byte-identical to what that format's MarshalBinary produced.
func v2Bytes(n int, ids ...int) []byte {
	words := make([]uint64, (n+wordBits-1)/wordBits)
	for _, id := range ids {
		words[id/wordBits] |= 1 << (uint(id) % wordBits)
	}
	buf := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300_000)
		ids := randomIDs(rng, n, []float64{0.001, 0.05, 0.6}[trial%3], trial%2 == 0)
		for _, l := range layouts {
			s := l.build(n, ids)
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got := &Set{}
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !got.Equal(s) {
				t.Fatalf("%s trial %d: round trip diverged", l.name, trial)
			}
			checkOracle(t, fmt.Sprintf("%s trial %d", l.name, trial), got, oracleOf(n, ids))
		}
	}
}

// TestUnmarshalV2Compat pins what is left of compatibility with the
// pre-container dense format: its streams — of any capacity, empty ones
// included — are refused with an error, never misread as containers.
func TestUnmarshalV2Compat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(200_000)
		ids := randomIDs(rng, n, 0.01+0.3*rng.Float64(), trial%2 == 0)
		if err := (&Set{}).UnmarshalBinary(v2Bytes(n, ids...)); err == nil {
			t.Fatalf("trial %d: dense stream of capacity %d accepted", trial, n)
		}
	}
	for _, n := range []int{0, 1, 64, 65} {
		if err := (&Set{}).UnmarshalBinary(v2Bytes(n)); err == nil {
			t.Fatalf("empty dense stream of capacity %d accepted", n)
		}
	}
}

func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	base := func() []byte {
		s := FromIDs(100_000, 1, 2, 3, 70_000)
		data, _ := s.MarshalBinary()
		return data
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   {1, 2, 3},
		"truncated body": base()[:len(base())-2],
		"trailing":       append(base(), 0xFF),
		"huge capacity":  binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, hybridMagic), 1<<50),
		"bad kind": func() []byte {
			d := base()
			d[16] = 200 // first container kind
			return d
		}(),
	}
	for name, data := range cases {
		if err := (&Set{}).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

// TestUnmarshalCapacityBoundedByStream: the capacity field is a claim
// the stream makes about itself, so a sixteen-byte stream claiming 2^40
// ids must be refused before the claim sizes the container directory.
func TestUnmarshalCapacityBoundedByStream(t *testing.T) {
	data := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, hybridMagic), maxBits)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Set{}).UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no containers behind it was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte stream allocated %d bytes", len(data), grew)
	}
}

func TestV3RejectedByCapacitySanity(t *testing.T) {
	// The magic deliberately exceeds the capacity bound the pre-container
	// dense readers check first, so such a build refuses a stream of
	// this format. This pins the constant: if hybridMagic ever drops
	// below maxBits, those readers would misparse it as dense words.
	if hybridMagic <= maxBits {
		t.Fatalf("hybridMagic %#x must exceed the v2 capacity bound %#x", hybridMagic, uint64(maxBits))
	}
}

// --- footprint ---------------------------------------------------------

// TestHybridBytesWinOnSparse pins the point of the containers: a sparse
// tidset over a large universe must take far less memory packed than in
// NewDense's all-bitmap layout.
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
// partial, two and one id.
var fuzzCapacities = []int{1, 64, 4097, 65536, 70000, 131073}

// FuzzSetOps replays a byte-driven op sequence over two sets — Add,
// Remove, a stretch of Adds, And, Or, AndNot, Complement, Fill,
// Optimize, IntersectInto, and a rebuild of one set from NewDense — and
// after every op holds both sets, and IntersectInto's result, to the
// oracle (see checkOracle). The first byte picks the capacity; each op
// is three bytes: which set and which op, then an id.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 2})
	f.Add([]byte{3, 4, 0, 9, 2, 0, 9, 6, 1, 1, 18, 0, 0, 20, 0, 0})
	f.Add([]byte{4, 4, 1, 0, 5, 2, 0, 16, 0, 0, 12, 0, 0, 8, 0, 0, 14, 0, 0})
	f.Add([]byte{5, 4, 255, 255, 5, 0, 100, 10, 0, 0, 11, 0, 0, 7, 0, 0, 18, 0, 0, 2, 3, 3})
	f.Add([]byte{2, 14, 0, 0, 3, 0, 7, 20, 0, 0, 6, 0, 0, 16, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := fuzzCapacities[int(data[0])%len(fuzzCapacities)]
		sets := [2]*Set{New(n), New(n)}
		refs := [2]oracle{make(oracle, n), make(oracle, n)}
		dst := new(Set)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			i := int(ops[0] & 1)
			s, o, other := sets[i], refs[i], sets[1-i]
			id := (int(ops[1])<<8 | int(ops[2])) * 7 % n
			op := int(ops[0]>>1) % 11
			switch op {
			case 0:
				s.Add(id)
				o[id] = true
			case 1:
				s.Remove(id)
				o[id] = false
			case 2: // a stretch: dense chunks and, once re-packed, runs
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
				s.AndNot(other)
				refs[i] = o.combine(refs[1-i], andNot)
			case 6:
				s.Complement()
				refs[i] = o.combine(o, not)
			case 7:
				s.Fill()
				refs[i] = o.combine(o, all)
			case 8:
				s.Optimize()
			case 9:
				got := IntersectInto(dst, s, other)
				want := o.combine(refs[1-i], and)
				if got != len(want.ids()) {
					t.Fatalf("IntersectInto returned %d, oracle intersection holds %d", got, len(want.ids()))
				}
				checkOracle(t, "IntersectInto result", dst, want)
			case 10:
				sets[i] = denseOf(n, o.ids())
			}
			for k := range sets {
				checkOracle(t, fmt.Sprintf("set %d after op %d", k, op), sets[k], refs[k])
			}
		}
	})
}
