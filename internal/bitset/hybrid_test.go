package bitset

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// withMode runs fn with the construction policy pinned, restoring the
// previous policy afterwards.
func withMode(hybrid bool, fn func()) {
	prev := SetHybrid(hybrid)
	defer SetHybrid(prev)
	fn()
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
// a negative id must never silently alias another record id (the dense
// layout's -1 used to index word 0 bit 63, i.e. Add(-1) added id 63).
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

func TestContractAgreesAcrossModes(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		withMode(hybrid, func() {
			// FromIDs filters; Add panics. Both in both modes.
			s := FromIDs(8, 1, 3, 9, -2, 7)
			if got := s.IDs(); len(got) != 3 {
				t.Errorf("hybrid=%v: FromIDs kept %v", hybrid, got)
			}
			defer func() {
				if recover() == nil {
					t.Errorf("hybrid=%v: Add(8) on capacity 8 must panic", hybrid)
				}
			}()
			s.Add(8)
		})
	}
}

// --- dense vs hybrid equivalence --------------------------------------

// buildBoth constructs the same logical set under both policies.
func buildBoth(n int, ids []int) (dense, hybrid *Set) {
	withMode(false, func() { dense = FromIDs(n, ids...) })
	withMode(true, func() { hybrid = FromIDs(n, ids...) })
	return dense, hybrid
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

// checkSame asserts the two sets agree on every read-only operation.
func checkSame(t *testing.T, label string, d, h *Set) {
	t.Helper()
	if d.Count() != h.Count() {
		t.Fatalf("%s: Count %d vs %d", label, d.Count(), h.Count())
	}
	if d.Hash() != h.Hash() {
		t.Fatalf("%s: Hash mismatch across representations", label)
	}
	if !d.Equal(h) || !h.Equal(d) {
		t.Fatalf("%s: Equal(dense, hybrid) = false for same content", label)
	}
	di, hi := d.IDs(), h.IDs()
	if len(di) != len(hi) {
		t.Fatalf("%s: IDs len %d vs %d", label, len(di), len(hi))
	}
	for i := range di {
		if di[i] != hi[i] {
			t.Fatalf("%s: IDs[%d] = %d vs %d", label, i, di[i], hi[i])
		}
	}
}

func TestHybridDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	densities := []float64{0.0005, 0.01, 0.2, 0.8}
	for trial := 0; trial < 24; trial++ {
		n := 1 + rng.Intn(200_000) // spans multiple containers
		dens := densities[trial%len(densities)]
		clustered := trial%2 == 0
		idsA := randomIDs(rng, n, dens, clustered)
		idsB := randomIDs(rng, n, densities[(trial+1)%len(densities)], !clustered)
		label := fmt.Sprintf("trial %d (n=%d dens=%g clustered=%v)", trial, n, dens, clustered)

		da, ha := buildBoth(n, idsA)
		db, hb := buildBoth(n, idsB)
		if trial%3 == 0 {
			ha.Optimize()
			hb.Optimize()
		}
		checkSame(t, label+" a", da, ha)
		checkSame(t, label+" b", db, hb)

		// Binary set algebra, functional and in-place.
		checkSame(t, label+" and", Intersect(da, db), Intersect(ha, hb))
		checkSame(t, label+" or", Union(da, db), Union(ha, hb))
		checkSame(t, label+" andnot", Difference(da, db), Difference(ha, hb))
		for _, inplace := range []struct {
			name string
			run  func(s, t *Set)
		}{
			{"And", func(s, o *Set) { s.And(o) }},
			{"Or", func(s, o *Set) { s.Or(o) }},
			{"AndNot", func(s, o *Set) { s.AndNot(o) }},
		} {
			dc, hc := da.Clone(), ha.Clone()
			inplace.run(dc, db)
			inplace.run(hc, hb)
			checkSame(t, label+" inplace "+inplace.name, dc, hc)
			// Cross-mode operands must work too (a dense set produced
			// by an old caller intersected with a hybrid tidset).
			dx, hx := da.Clone(), ha.Clone()
			inplace.run(dx, hb)
			inplace.run(hx, db)
			checkSame(t, label+" crossmode "+inplace.name, dx, hx)
		}

		// Scalar queries.
		if got, want := AndCount(ha, hb), AndCount(da, db); got != want {
			t.Fatalf("%s: AndCount %d vs %d", label, got, want)
		}
		if AndCount(ha, db) != AndCount(da, db) || AndCount(da, hb) != AndCount(da, db) {
			t.Fatalf("%s: cross-mode AndCount diverges", label)
		}
		if da.SubsetOf(db) != ha.SubsetOf(hb) || db.SubsetOf(da) != hb.SubsetOf(ha) {
			t.Fatalf("%s: SubsetOf diverges", label)
		}
		inter := Intersect(da, db)
		if !inter.SubsetOf(ha) || !inter.SubsetOf(hb) {
			t.Fatalf("%s: intersection not subset of operands across modes", label)
		}
		if da.Intersects(db) != ha.Intersects(hb) {
			t.Fatalf("%s: Intersects diverges", label)
		}
		for i := 0; i < 50; i++ {
			id := rng.Intn(n)
			if da.Contains(id) != ha.Contains(id) {
				t.Fatalf("%s: Contains(%d) diverges", label, id)
			}
		}

		// ForEach order and early stop.
		var dseen, hseen []int
		da.ForEach(func(id int) bool { dseen = append(dseen, id); return len(dseen) < 7 })
		ha.ForEach(func(id int) bool { hseen = append(hseen, id); return len(hseen) < 7 })
		if fmt.Sprint(dseen) != fmt.Sprint(hseen) {
			t.Fatalf("%s: ForEach early-stop prefix %v vs %v", label, dseen, hseen)
		}

		// Complement / Fill / Clear.
		dc, hc := da.Clone(), ha.Clone()
		dc.Complement()
		hc.Complement()
		checkSame(t, label+" complement", dc, hc)
		dc.Fill()
		hc.Fill()
		checkSame(t, label+" fill", dc, hc)
		dc.Clear()
		hc.Clear()
		checkSame(t, label+" clear", dc, hc)

		// CloneGrown (the delta ingestion path).
		grown := n + 1 + rng.Intn(1000)
		dg, hg := da.CloneGrown(grown), ha.CloneGrown(grown)
		checkSame(t, label+" clonegrown", dg, hg)
		for i := 0; i < 20 && len(idsA) > 0; i++ {
			id := idsA[rng.Intn(len(idsA))]
			dg.Remove(id)
			hg.Remove(id)
			add := n + rng.Intn(grown-n)
			dg.Add(add)
			hg.Add(add)
		}
		checkSame(t, label+" clonegrown mutated", dg, hg)
	}
}

// TestHybridMutationSequence drives a long random Add/Remove/Optimize
// sequence through both representations, crossing the promotion and
// demotion thresholds repeatedly.
func TestHybridMutationSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 3 * ctrBits / 2 // one full container plus a partial one
	var d, h *Set
	withMode(false, func() { d = New(n) })
	withMode(true, func() { h = New(n) })
	for step := 0; step < 40_000; step++ {
		id := rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			d.Remove(id)
			h.Remove(id)
		case 4:
			if step%1000 == 0 {
				h.Optimize()
			}
		default:
			d.Add(id)
			h.Add(id)
		}
	}
	if d.Count() != h.Count() || d.Hash() != h.Hash() || !d.Equal(h) {
		t.Fatalf("after mutation sequence: count %d vs %d, equal=%v",
			d.Count(), h.Count(), d.Equal(h))
	}
}

// TestContainerPromotionDemotion inspects the internal kinds directly:
// arrays must promote past arrayMaxCard, bitmaps must demote back, Fill
// must produce runs, and Optimize must pick the cheapest encoding.
func TestContainerPromotionDemotion(t *testing.T) {
	withMode(true, func() {
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
	})
	withMode(false, func() {
		s := New(ctrBits)
		s.Add(1)
		if got := s.ctrs[0].kind; got != bitmapCtr {
			t.Fatalf("dense policy kind = %d, want bitmap always", got)
		}
		s.Fill()
		if got := s.ctrs[0].kind; got != bitmapCtr {
			t.Fatalf("dense Fill kind = %d, want bitmap", got)
		}
	})
}

// --- serialization ----------------------------------------------------

// v2Bytes encodes ids in the pre-hybrid dense binary format (capacity +
// words), byte-identical to what the old MarshalBinary produced.
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
		for _, hybrid := range []bool{true, false} {
			withMode(hybrid, func() {
				s := FromIDs(n, ids...)
				if trial%2 == 0 {
					s.Optimize()
				}
				data, err := s.MarshalBinary()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				got := &Set{}
				if err := got.UnmarshalBinary(data); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if !got.Equal(s) || got.Len() != s.Len() || got.Hash() != s.Hash() {
					t.Fatalf("hybrid=%v trial %d: round trip diverged", hybrid, trial)
				}
			})
		}
	}
}

// TestUnmarshalV2Compat pins what is left of compatibility with the
// pre-hybrid dense format: its streams — of any capacity, empty ones
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
	// The magic deliberately exceeds the capacity bound the pre-hybrid
	// dense readers check first, so such a build refuses a stream of
	// this format. This pins the constant: if hybridMagic ever drops
	// below maxBits, those readers would misparse it as dense words.
	if hybridMagic <= maxBits {
		t.Fatalf("hybridMagic %#x must exceed the v2 capacity bound %#x", hybridMagic, uint64(maxBits))
	}
}

// --- footprint ---------------------------------------------------------

// TestHybridBytesWinOnSparse pins the point of the whole exercise: a
// sparse tidset over a large universe must take far less memory in
// hybrid form than in dense form.
func TestHybridBytesWinOnSparse(t *testing.T) {
	n := 1 << 20
	ids := make([]int, 200)
	for i := range ids {
		ids[i] = i * 4999
	}
	d, h := buildBoth(n, ids)
	h.Optimize()
	if d.Bytes() < n/8 {
		t.Fatalf("dense Bytes() = %d, want >= %d (allocates the universe)", d.Bytes(), n/8)
	}
	if h.Bytes() > d.Bytes()/20 {
		t.Fatalf("hybrid Bytes() = %d, want at least 20x below dense %d", h.Bytes(), d.Bytes())
	}
}
