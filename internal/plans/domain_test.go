package plans_test

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"colarm/internal/cost"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/relation"
)

// TestRequestWorkIndependentOfUnnamedDomain grows an attribute the query
// does not name from 1 to 80 000 values and requires the same query,
// under the optimizer's choice and under each forced plan, to write the
// same slots of D^Q's layout table a request, and to allocate bytes
// within 10 %: the table is recycled with the request's scratch and
// stamped per request, never reset across the item universe.
func TestRequestWorkIndependentOfUnnamedDomain(t *testing.T) {
	type cost1 struct {
		writes int
		bytes  float64
	}
	names := []string{"auto", "S-E-V", "S-VS", "SS-E-V", "SS-VS", "SS-E-U-V", "ARM"}
	perRequest := func(values int) map[string]cost1 {
		b := relation.NewBuilder("wide", "A", "B", "C", "Z")
		for a := 0; a < 3; a++ {
			for v := 0; v < 4; v++ {
				b.AddValue(a, string(rune('a'+a))+string(rune('0'+v)))
			}
		}
		for v := 0; v < values; v++ {
			b.AddValue(3, "z"+strconv.Itoa(v))
		}
		for i := 0; i < 2000; i++ {
			base := i % 2
			if err := b.AddRecordIdx(base, base^(i/2%2), i/4%4, 0); err != nil {
				t.Fatal(err)
			}
		}
		idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.1, Fanout: 8})
		if err != nil {
			t.Fatal(err)
		}
		mo, ex, surf := cost.NewModel(idx), plans.NewExecutor(idx.Space), plans.NewSurface(idx)
		reg := itemset.RegionFor(idx.Space)
		if err := reg.Restrict(0, []int{0}); err != nil {
			t.Fatal(err)
		}
		q := &plans.Query{Region: reg, MinSupport: 0.2, MinConfidence: 0.8}
		out := map[string]cost1{}
		for _, name := range names {
			forced, err := plans.ParseKind(name)
			request := func() int {
				f := ex.Focus(surf, q)
				kind := forced
				if err != nil { // auto: the optimizer's pick, behind the applicability gate
					if kind, _ = mo.Choose(f, q); !f.Applicable() {
						kind = plans.ARM
					}
				}
				if _, err := ex.RunContext(context.Background(), kind, f, q); err != nil {
					t.Fatal(err)
				}
				n := plans.SlotWrites(f)
				f.Release()
				return n
			}
			// A collection empties the scratch pool: of several rounds,
			// keep the fewest bytes a request.
			const rounds, calls = 5, 20
			c := cost1{writes: request(), bytes: -1}
			var before, after runtime.MemStats
			for round := 0; round < rounds; round++ {
				runtime.ReadMemStats(&before)
				for i := 0; i < calls; i++ {
					if n := request(); n != c.writes {
						t.Fatalf("%s at %d values: a request wrote %d slots, the first %d", name, values, n, c.writes)
					}
				}
				runtime.ReadMemStats(&after)
				if per := float64(after.TotalAlloc-before.TotalAlloc) / calls; c.bytes < 0 || per < c.bytes {
					c.bytes = per
				}
			}
			out[name] = c
		}
		return out
	}
	narrow, wide := perRequest(1), perRequest(80000)
	for _, name := range names {
		n, w := narrow[name], wide[name]
		t.Logf("%s: %d and %d slot writes, %.0f and %.0f bytes a request at 1 and 80 000 values", name, n.writes, w.writes, n.bytes, w.bytes)
		if float64(w.writes) > 1.1*float64(n.writes) {
			t.Errorf("%s: a request writes %d slots with 1 value of Z, %d with 80 000", name, n.writes, w.writes)
		}
		if !raceEnabled && w.bytes > 1.1*n.bytes {
			t.Errorf("%s: a request allocates %.0f bytes with 1 value of Z, %.0f with 80 000", name, n.bytes, w.bytes)
		}
	}
}
