package colarm

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func openSalary(t testing.TB, opts Options) *Engine {
	t.Helper()
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	if opts.PrimarySupport == 0 {
		opts.PrimarySupport = 0.18
	}
	eng, err := Open(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// atProcs returns fn's results computed with GOMAXPROCS at n, which
// every parallel section of an engine sizes its fan-out from, and
// restores GOMAXPROCS after: at 1 every section runs serially.
func atProcs[T any](n int, fn func() (T, error)) (T, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// TestSerialParallelEquivalence checks the fan-out end to end: an
// engine opened and queried at GOMAXPROCS 1 and one at GOMAXPROCS + 2
// answer every query identically, rules and statistics alike.
func TestSerialParallelEquivalence(t *testing.T) {
	procs := runtime.GOMAXPROCS(0) + 2
	open := func(n int) *Engine {
		eng, _ := atProcs(n, func() (*Engine, error) { return openSalary(t, Options{}), nil })
		return eng
	}
	serial, parallel := open(1), open(procs)
	queries := []Query{
		{MinSupport: 0.2, MinConfidence: 0.3},
		{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
			ItemAttributes: []string{"Age", "Salary"},
			MinSupport:     0.70, MinConfidence: 0.95},
		{Range: map[string][]string{"Location": {"Boston"}},
			MinSupport: 0.4, MinConfidence: 0.6, Plan: SSEUV},
		{MinSupport: 0.45, MinConfidence: 0.8, Plan: ARM},
	}
	for qi, q := range queries {
		want, err := atProcs(1, func() (*Result, error) { return serial.Mine(q) })
		if err != nil {
			t.Fatalf("q%d serial: %v", qi, err)
		}
		got, err := atProcs(procs, func() (*Result, error) { return parallel.Mine(q) })
		if err != nil {
			t.Fatalf("q%d parallel: %v", qi, err)
		}
		if !reflect.DeepEqual(got.Rules, want.Rules) {
			t.Errorf("q%d: rules diverge across GOMAXPROCS settings", qi)
		}
		ws, gs := want.Stats, got.Stats
		ws.DurationNanos, gs.DurationNanos = 0, 0
		if ws != gs {
			t.Errorf("q%d: stats diverge\nserial:   %+v\nparallel: %+v", qi, ws, gs)
		}
	}
}

// TestStatsExposesExecutorCounters checks that the executor's operator
// counters survive the trip through the public Stats instead of being
// silently dropped.
func TestStatsExposesExecutorCounters(t *testing.T) {
	eng := openSalary(t, Options{})
	res, err := eng.Mine(Query{MinSupport: 0.2, MinConfidence: 0.3, Plan: SEV})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RNodesVisited == 0 || st.REntriesChecked == 0 {
		t.Errorf("R-tree counters not plumbed: %+v", st)
	}
	if st.Qualified == 0 || st.OracleCalls == 0 || st.OracleMisses == 0 {
		t.Errorf("ELIMINATE/VERIFY counters not plumbed: %+v", st)
	}
	// A query with an item-attribute mask must surface filter drops.
	res, err = eng.Mine(Query{
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.2, MinConfidence: 0.3, Plan: SEV,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ItemFiltered == 0 {
		t.Errorf("ItemFiltered not plumbed: %+v", res.Stats)
	}
}

// TestEngineConcurrentMine exercises the documented concurrency
// contract: one Engine serving Mine, MineQL and Explain from many
// goroutines at once. Run under -race this is the regression net for
// any shared-mutable-state slip in the executor, cost model or index.
func TestEngineConcurrentMine(t *testing.T) {
	eng := openSalary(t, Options{})
	queries := []Query{
		{MinSupport: 0.2, MinConfidence: 0.3},
		{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
			ItemAttributes: []string{"Age", "Salary"},
			MinSupport:     0.70, MinConfidence: 0.95},
		{Range: map[string][]string{"Location": {"Boston"}}, MinSupport: 0.4,
			MinConfidence: 0.6, Plan: SSVS},
		{MinSupport: 0.45, MinConfidence: 0.8, Plan: ARM},
	}
	const ql = `REPORT LOCALIZED ASSOCIATION RULES FROM salary
WHERE RANGE Location = (Seattle), Gender = (F)
AND ITEM ATTRIBUTES Age, Salary
HAVING minsupport = 70% AND minconfidence = 95%;`

	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := eng.Mine(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	goroutines := 4 * runtime.GOMAXPROCS(0)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				switch (g + it) % 3 {
				case 0:
					qi := (g + it) % len(queries)
					res, err := eng.Mine(queries[qi])
					if err != nil {
						errs <- fmt.Errorf("goroutine %d Mine: %v", g, err)
						return
					}
					if !reflect.DeepEqual(res.Rules, want[qi].Rules) {
						errs <- fmt.Errorf("goroutine %d: q%d rules diverge under concurrency", g, qi)
						return
					}
				case 1:
					if _, err := eng.MineQL(ql); err != nil {
						errs <- fmt.Errorf("goroutine %d MineQL: %v", g, err)
						return
					}
				case 2:
					if _, err := eng.Explain(queries[(g+it)%len(queries)]); err != nil {
						errs <- fmt.Errorf("goroutine %d Explain: %v", g, err)
						return
					}
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
