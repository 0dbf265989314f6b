package plans

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colarm/internal/itemset"
	"colarm/internal/obs"
	"colarm/internal/pool"
)

// setProcs sets GOMAXPROCS, which every query sizes its fan-out from,
// to n until the test or benchmark ends: at 1 every section runs
// serially.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// atProcs runs fn with GOMAXPROCS at n and restores it after.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// memoKey is the k-th of the itemsets the memo tests ask for: item 3i
// for every set bit i of k+1, so the keys include singletons, prefixes
// and subsets of one another and differ in length.
func memoKey(buf itemset.Set, k int) itemset.Set {
	buf = buf[:0]
	for i, b := 0, k+1; b > 0; i, b = i+1, b>>1 {
		if b&1 == 1 {
			buf = append(buf, itemset.Item(3*i))
		}
	}
	return buf
}

// checkComputesOnce asks sc for 50 distinct itemsets 16 times each from
// every worker (GOMAXPROCS floored at 4), each ask through a scratch
// buffer the worker overwrites right after: every value must be exact,
// every itemset computed once, and fresh reported once per itemset.
func checkComputesOnce(t *testing.T, sc *shardedCounts) {
	t.Helper()
	setProcs(t, max(4, runtime.GOMAXPROCS(0)))
	const keys = 50
	var computes [keys]int32
	var freshTotal int32
	var mu sync.Mutex
	_, err := pool.Run(context.Background(), keys*16, func(i int) {
		k := i % keys
		x := memoKey(make(itemset.Set, 0, 8), k)
		v, fresh := sc.get(x, func() int {
			mu.Lock()
			computes[k]++
			mu.Unlock()
			return k * 7
		})
		for j := range x {
			x[j] = -1 // the memo must not have kept the caller's buffer
		}
		if v != k*7 {
			t.Errorf("key %d: got %d", k, v)
		}
		if fresh {
			mu.Lock()
			freshTotal++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range computes {
		if c != 1 {
			t.Errorf("key %d computed %d times, want exactly once", k, c)
		}
	}
	if freshTotal != keys {
		t.Errorf("fresh count = %d, want %d (one per distinct key)", freshTotal, keys)
	}
	for k := 0; k < keys; k++ {
		if v, fresh := sc.get(memoKey(nil, k), func() int { return -1 }); v != k*7 || fresh {
			t.Errorf("key %d after the run: got %d fresh=%v, want %d from the memo", k, v, fresh, k*7)
		}
	}
}

func TestShardedCountsComputesEachKeyOnce(t *testing.T) {
	checkComputesOnce(t, new(shardedCounts))
}

// TestShardedCountsCollidingHashes runs the same check with every
// itemset hashed to 0: one shard, one probe chain through every entry,
// so only the exact item comparison tells the itemsets apart.
func TestShardedCountsCollidingHashes(t *testing.T) {
	checkComputesOnce(t, &shardedCounts{sameHash: true})
}

// TestShardedCountsPanicReleasesShard panics in one key's compute with
// every itemset in one shard, at GOMAXPROCS 4: the shard lock must be
// released on the way out, or the workers queued on it never reach
// pool.Run's join and the run hangs instead of returning the panic.
func TestShardedCountsPanicReleasesShard(t *testing.T) {
	setProcs(t, 4)
	sc := &shardedCounts{sameHash: true}
	const keys = 50
	done := make(chan error, 1)
	go func() {
		_, err := pool.Run(context.Background(), keys*16, func(i int) {
			k := i % keys
			sc.get(memoKey(nil, k), func() int {
				if k == 7 {
					// Hold the shard until the other workers queue on it.
					time.Sleep(20 * time.Millisecond)
					panic("compute failed")
				}
				return k
			})
		})
		done <- err
	}()
	select {
	case err := <-done:
		var pe *pool.PanicError
		if !errors.As(err, &pe) || pe.Value != "compute failed" {
			t.Fatalf("Run returned %v, want the compute's panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung: a worker waits on the shard the panicking compute held")
	}
}

func TestUnknownKindErrorMessage(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	if _, err := NewExecutor(idx.Space).Run(Kind(42), NewSurface(idx), &Query{
		Region:     itemset.NewRegion([]int{4, 6, 4, 2, 3, 4}),
		MinSupport: 0.5, MinConfidence: 0.5,
	}); err == nil || !strings.Contains(err.Error(), "42") {
		t.Errorf("unknown-kind error must name the offending value, got %v", err)
	}
	// A kind with a printable name includes it alongside the value.
	msg := unknownKindError(SSEUV).Error()
	if !strings.Contains(msg, "4") || !strings.Contains(msg, "SS-E-U-V") {
		t.Errorf("error for named kind = %q, want value and name", msg)
	}
	if msg := unknownKindError(99).Error(); !strings.Contains(msg, "99") {
		t.Errorf("error for unnamed kind = %q, want the value", msg)
	}
}

// equivQueries returns a workload covering the operator paths: full
// domain, selective regions, item-attribute masks, and a threshold low
// enough to exercise multi-level rule generation.
func equivQueries(t *testing.T, idx interface {
	RegionFromSelections(map[string][]string) (*itemset.Region, error)
}, space *itemset.Space) []*Query {
	t.Helper()
	full := itemset.RegionFor(space)
	seattle, err := idx.RegionFromSelections(map[string][]string{
		"Location": {"Seattle"}, "Gender": {"F"},
	})
	if err != nil {
		t.Fatal(err)
	}
	boston, err := idx.RegionFromSelections(map[string][]string{
		"Location": {"Boston"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, space.NumAttrs())
	mask[4], mask[5] = true, true // Age, Salary
	return []*Query{
		{Region: full, MinSupport: 0.45, MinConfidence: 0.8},
		{Region: full, MinSupport: 0.2, MinConfidence: 0.3},
		{Region: seattle, MinSupport: 0.70, MinConfidence: 0.95, ItemAttrs: mask},
		{Region: boston, MinSupport: 0.4, MinConfidence: 0.6},
		{Region: boston, MinSupport: 0.4, MinConfidence: 0.6, MaxConsequent: 1},
	}
}

// TestSerialParallelEquivalence asserts the core determinism contract:
// for every surface shape, every plan kind and a workload of diverse
// queries, the parallel path (GOMAXPROCS, floored at 4) emits
// byte-identical rules and identical operator counters to the serial
// path (GOMAXPROCS 1).
func TestSerialParallelEquivalence(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	queries := equivQueries(t, idx, idx.Space)
	procs := max(4, runtime.GOMAXPROCS(0))
	ex := NewExecutor(idx.Space)
	for _, s := range surfaceTable(t, rand.New(rand.NewSource(1)), idx, 0.18) {
		for _, k := range Kinds() {
			for qi, q := range queries {
				var want, got *Result
				var err error
				atProcs(1, func() { want, err = ex.Run(k, s.Surface, q) })
				if err != nil {
					t.Fatalf("%s %v q%d serial: %v", s.name, k, qi, err)
				}
				atProcs(procs, func() { got, err = ex.Run(k, s.Surface, q) })
				if err != nil {
					t.Fatalf("%s %v q%d parallel: %v", s.name, k, qi, err)
				}
				if !reflect.DeepEqual(got.Rules, want.Rules) {
					t.Errorf("%s %v q%d: parallel rules diverge (%d vs %d rules)",
						s.name, k, qi, len(got.Rules), len(want.Rules))
				}
				ws, gs := want.Stats, got.Stats
				ws.Duration, gs.Duration = 0, 0
				if ws != gs {
					t.Errorf("%s %v q%d: stats diverge\nserial:   %+v\nparallel: %+v", s.name, k, qi, ws, gs)
				}
			}
		}
	}
}

// TestWorkerPanicFailsTheQuery panics on one worker of a real ELIMINATE
// and a real VERIFY fan-out, serially and at GOMAXPROCS 4: the query
// returns the panic as a *pool.PanicError, and the next run on the same
// executor and surface answers exactly as the run before the panic.
func TestWorkerPanicFailsTheQuery(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	s := NewSurface(idx)
	q := equivQueries(t, idx, idx.Space)[1]
	ex := NewExecutor(idx.Space)
	for _, procs := range []int{1, 4} {
		for _, op := range []obs.Op{obs.OpEliminate, obs.OpVerify} {
			var want, got *Result
			var err error
			atProcs(procs, func() { want, err = ex.Run(SEV, s, q) })
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			ex.workerFault = func(at obs.Op, i int) {
				if at == op && i == 0 {
					fired++
					panic(fmt.Sprintf("injected in %v", op))
				}
			}
			atProcs(procs, func() { _, err = ex.Run(SEV, s, q) })
			ex.workerFault = nil
			var pe *pool.PanicError
			if fired != 1 || !errors.As(err, &pe) || pe.Value != fmt.Sprintf("injected in %v", op) {
				t.Fatalf("procs=%d %v: fault fired %d times, Run returned %v", procs, op, fired, err)
			}
			atProcs(procs, func() { got, err = ex.Run(SEV, s, q) })
			if err != nil {
				t.Fatalf("procs=%d %v: the run after the panic: %v", procs, op, err)
			}
			want.Stats.Duration, got.Stats.Duration = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("procs=%d %v: the run after the panic differs from the one before", procs, op)
			}
		}
	}
}

// TestConcurrentRunSmoke hammers one shared Executor from many
// goroutines — the scenario the race detector must bless — and checks
// every goroutine observes the same answer.
func TestConcurrentRunSmoke(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	ex, s := NewExecutor(idx.Space), NewSurface(idx) // nested per-query parallelism
	queries := equivQueries(t, idx, idx.Space)

	type answer struct {
		k Kind
		q int
	}
	want := map[answer]*Result{}
	for _, k := range Kinds() {
		for qi, q := range queries {
			res, err := ex.Run(k, s, q)
			if err != nil {
				t.Fatal(err)
			}
			want[answer{k, qi}] = res
		}
	}

	goroutines := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				k := Kinds()[(g+it)%len(Kinds())]
				qi := (g * 7 / 3) % len(queries)
				res, err := ex.Run(k, s, queries[qi])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(res.Rules, want[answer{k, qi}].Rules) {
					errs <- fmt.Errorf("goroutine %d: %v q%d rules diverge under concurrency", g, k, qi)
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
