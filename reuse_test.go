package colarm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"colarm/internal/datagen"
)

// A query's scratch — the executor's candidate lists, per-CFI state,
// rule buffers and oracle memo, D^Q's layout, ARM's miner — is recycled
// from one query to the next once MineContext has wrapped the rules.
// These tests hold every answer given from recycled scratch to one given
// from fresh scratch, across engines whose indexes differ in size,
// under concurrency, and in steady-state bytes.

// reuseCase is one engine of the reuse tests with the queries it is
// asked.
type reuseCase struct {
	name    string
	eng     *Engine
	queries []Query
}

// openGenerated indexes a generated dataset at primary.
func openGenerated(t testing.TB, cfg datagen.Config, primary float64) *Engine {
	t.Helper()
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(&Dataset{rel: d}, Options{PrimarySupport: primary})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// reuseCases opens three engines, largest index first — reduced PUMSB @
// 0.92 (23 231 CFIs), chess @ 0.70 (8 014 CFIs), salary @ 0.18 — each
// with a whole-domain query, a region query and an item-attribute
// query, some with consequents of two items.
func reuseCases(t testing.TB) []reuseCase {
	t.Helper()
	pumsb := openGenerated(t, datagen.Scaled(datagen.PUMSBConfig(1), 0.15), 0.92)
	chess := openGenerated(t, datagen.ChessConfig(1), 0.70)
	salary := openSalary(t, Options{})
	cases := []reuseCase{{name: "pumsb", eng: pumsb}, {name: "chess", eng: chess}, {name: "salary", eng: salary}}
	for i := range cases {
		c := &cases[i]
		attrs := c.eng.Dataset().Attributes()
		vals, err := c.eng.Dataset().Values(attrs[1])
		if err != nil {
			t.Fatal(err)
		}
		whole := Query{MinSupport: 0.97, MinConfidence: 0.9, MaxConsequent: 1}
		region := Query{Range: map[string][]string{attrs[1]: vals[:len(vals)/2+1]}, MinSupport: 0.965, MinConfidence: 0.9, MaxConsequent: 2}
		items := Query{ItemAttributes: attrs[:len(attrs)/2], MinSupport: 0.97, MinConfidence: 0.85}
		switch c.name {
		case "chess":
			whole.MinSupport, region.MinSupport, items.MinSupport = 0.80, 0.85, 0.85
		case "salary":
			whole = Query{MinSupport: 0.2, MinConfidence: 0.3, MaxConsequent: 2}
			region = Query{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
				ItemAttributes: []string{"Age", "Salary"}, MinSupport: 0.70, MinConfidence: 0.95}
			items = Query{ItemAttributes: []string{"Title", "Age", "Salary"}, MinSupport: 0.3, MinConfidence: 0.5}
		}
		c.queries = []Query{whole, region, items}
	}
	return cases
}

// answer is what a test compares of a result: the rules, and the stats
// without the duration.
type answer struct {
	Rules []Rule
	Stats Stats
}

func answerOf(res *Result) answer {
	st := res.Stats
	st.DurationNanos = 0
	return answer{Rules: res.Rules, Stats: st}
}

// freshAnswers answers every query of every case under every plan from
// fresh scratch: two collections empty the scratch pool, and the
// answers go through Engine.mine, which releases nothing, so no query
// meets a scratch another one used.
func freshAnswers(t *testing.T, cases []reuseCase) map[string]answer {
	t.Helper()
	runtime.GC()
	runtime.GC()
	want := map[string]answer{}
	for _, c := range cases {
		for qi, q := range c.queries {
			for _, p := range sixPlans {
				q.Plan = p
				res, _, _, err := c.eng.mine(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				out := c.eng.wrap(res)
				want[reuseKey(c.name, qi, p)] = answerOf(out)
			}
		}
	}
	return want
}

func reuseKey(name string, qi int, p Plan) string { return fmt.Sprintf("%s q%d %v", name, qi, p) }

// TestScratchReuseAcrossEngines interleaves queries across engines whose
// indexes differ in size, under all six plans, largest engine first and
// then smallest first — so a scratch meets buffers a larger index left
// behind, then has to grow for one — and holds each answer to the one
// fresh scratch gave.
func TestScratchReuseAcrossEngines(t *testing.T) {
	cases := reuseCases(t)
	want := freshAnswers(t, cases)
	for _, reversed := range []bool{false, true} {
		for qi := 0; qi < 3; qi++ {
			for _, p := range sixPlans {
				for k := range cases {
					c := cases[k]
					if reversed {
						c = cases[len(cases)-1-k]
					}
					q := c.queries[qi]
					q.Plan = p
					res, err := c.eng.Mine(q)
					if err != nil {
						t.Fatal(err)
					}
					key := reuseKey(c.name, qi, p)
					if got := answerOf(res); !reflect.DeepEqual(got, want[key]) {
						t.Fatalf("%s (reversed=%v): %d rules %+v from recycled scratch, %d rules %+v from fresh",
							key, reversed, len(got.Rules), got.Stats, len(want[key].Rules), want[key].Stats)
					}
				}
			}
		}
	}
}

// TestConcurrentMineMatchesSerial runs mixed queries against one engine
// from many goroutines, each taking and returning scratch as it goes,
// and holds every answer byte for byte to the serial one. Run under
// -race it also shows that no two queries share a scratch.
func TestConcurrentMineMatchesSerial(t *testing.T) {
	eng := quarterChessEngine(t)
	attrs := eng.Dataset().Attributes()
	vals, err := eng.Dataset().Values(attrs[0])
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, p := range sixPlans {
		queries = append(queries,
			Query{MinSupport: 0.88, MinConfidence: 0.9, MaxConsequent: 1, Plan: p},
			Query{Range: map[string][]string{attrs[0]: vals[:1]}, MinSupport: 0.90, MinConfidence: 0.9, MaxConsequent: 1, Plan: p},
			Query{ItemAttributes: attrs[:12], MinSupport: 0.88, MinConfidence: 0.9, MaxConsequent: 2, Plan: p})
	}
	encode := func(res *Result) []byte {
		b, err := json.Marshal(answerOf(res))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		res, err := eng.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encode(res)
	}

	goroutines := 4 * runtime.GOMAXPROCS(0)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < len(queries); it++ {
				qi := (g*5 + it) % len(queries)
				res, err := eng.Mine(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := encode(res); !bytes.Equal(got, want[qi]) {
					errs <- fmt.Errorf("goroutine %d: query %d (%v) answers differently from its serial run", g, qi, queries[qi].Plan)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMineAllocBudget bounds what a steady-state Mine allocates beyond
// the rules it returns. On chess @ 0.70, forced SS-E-U-V over the whole
// domain (2 630 rules) and ARM on the same query each allocate at most
// 1.5 times the returned rules' own footprint — their Rule structs and
// label slices — per call: everything else a query needs is recycled.
func TestMineAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	eng := openGenerated(t, datagen.ChessConfig(1), 0.70)
	for _, p := range []Plan{SSEUV, ARM} {
		q := Query{MinSupport: 0.80, MinConfidence: 0.9, MaxConsequent: 1, Plan: p}
		res, err := eng.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		footprint := 0
		for _, r := range res.Rules {
			footprint += int(unsafe.Sizeof(r)) + int(unsafe.Sizeof(""))*(len(r.Antecedent)+len(r.Consequent))
		}
		if len(res.Rules) < 2000 {
			t.Fatalf("%v: %d rules, too few for the budget to mean anything", p, len(res.Rules))
		}
		// A collection empties the pool, and a call that meets an empty
		// one allocates its scratch afresh: of several rounds, keep the
		// fewest bytes per call.
		const rounds, calls = 5, 4
		fewest := -1.0
		var before, after runtime.MemStats
		for r := 0; r < rounds; r++ {
			if _, err := eng.Mine(q); err != nil { // refill the pool
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if _, err := eng.Mine(q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if per := float64(after.TotalAlloc-before.TotalAlloc) / calls; fewest < 0 || per < fewest {
				fewest = per
			}
		}
		ratio := fewest / float64(footprint)
		t.Logf("%v: %d rules, footprint %d bytes, %.0f bytes per Mine (%.2f×)", p, len(res.Rules), footprint, fewest, ratio)
		if ratio > 1.5 {
			t.Errorf("%v: a Mine allocates %.2f× its rules' footprint, budget 1.5×", p, ratio)
		}
	}
}

// sixPlans are the plans a query can force.
var sixPlans = []Plan{SEV, SVS, SSEV, SSVS, SSEUV, ARM}
