package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// mineWorkload is one of the three read workloads: which datasets it
// serves and which /v1/mine requests its clients send.
type mineWorkload struct {
	name     string
	fixtures func(quick bool) []fixture
	// list builds a corpus of requests from the builder's random
	// source.
	list func(b *listBuilder) ([]request, error)
	// hot says the timed list is Zipf draws from the list and every
	// timed reply must come from the result cache.
	hot bool
	// shards makes the traced run replay its mushroom requests on a
	// two-shard engine too.
	shards bool
	// plans is how many plan variants of each query the corpus holds,
	// adjacent (1 when absent); a pass sends each query once.
	plans int
}

// fullOr returns the full profile's fixtures, or the -quick ones.
func fullOr(quick []fixture, full ...fixture) func(bool) []fixture {
	return func(q bool) []fixture {
		if q {
			return quick
		}
		return full
	}
}

var quickFixtures = []fixture{salaryQuick, mushroomQuick}

var mineWorkloads = []mineWorkload{
	{name: "mine_mip", fixtures: fullOr(quickFixtures, chessFull, mushroomFull), list: mipList, shards: true, plans: len(mipPlans)},
	{name: "mine_auto", fixtures: fullOr(quickFixtures, chessFull, mushroomFull, pumsbReduced), list: autoList},
	// Salary's 11 records cannot yield 64 distinct texts inside the rule
	// band, so the quick profile serves mushroom alone.
	{name: "mine_hot", fixtures: fullOr([]fixture{mushroomQuick}, chessFull, mushroomFull), list: hotTexts, hot: true},
}

// warmRequests bounds the warm-up pass of the cache-missing workloads:
// about the first 40 requests after an index build run several times
// slower than steady state (README, sizing facts), so a few more than
// that are sent and discarded. Not more: a reported run warms up three
// times, and the driver's 92 runs share one hour.
const warmRequests = 48

// The corpora — which regions, thresholds and texts a workload asks
// about — are fixed like the datasets; -seed decides the traffic: the
// order the corpus is sent in, and the popularity draws of mine_hot.
// Drawing the regions from -seed too was tried: a run has time for a
// few hundred requests, a dozen heavy queries decide its throughput and
// tail, and the work per request then differed between seeds by 19 %
// (README, what -seed decides).
const (
	corpusSeed     = 1
	warmCorpusSeed = 2
)

// warmList builds the traffic a fresh environment is warmed up with
// during set-up (replies discarded): on a miss workload a second
// corpus, built without a single engine call; on the hot workload every
// text once, which fills the cache, then draws that warm the hit path.
func (w mineWorkload) warmList(e *env) ([]request, error) {
	if w.hot {
		// Answers included: which texts are kept depends on their rule
		// counts.
		b := &listBuilder{e: e, rng: rand.New(rand.NewSource(corpusSeed)), want: new([]answer)}
		texts, err := w.list(b)
		if err != nil {
			return nil, err
		}
		return append(texts, hotDraws(texts, b.rng, hotPass, 4*hotQueries)...), nil
	}
	b := &listBuilder{e: e, rng: rand.New(rand.NewSource(warmCorpusSeed))}
	warm, err := w.list(b)
	if err != nil {
		return nil, err
	}
	return shuffled(warm, b.rng)[:min(len(warm), warmRequests)], nil
}

// hotPass is how many draws one mine_hot pass sends.
const hotPass = 8 * hotQueries

// timedList builds the timed request list, the number of requests in
// one pass over it, and the answers it must return. A pass is the
// whole corpus in the seed's order; where the corpus holds several
// plan variants of each query, a pass sends every query once, under a
// plan that rotates from pass to pass, so that every pass carries the
// same queries and the same plan mix. On the hot workload a pass is
// hotPass requests in popularity proportions.
func (w mineWorkload) timedList(e *env, seed int64) (timed []request, passLen int, want []answer, err error) {
	corpus, err := w.list(&listBuilder{e: e, rng: rand.New(rand.NewSource(corpusSeed)), want: &want})
	if err != nil {
		return nil, 0, nil, err
	}
	order := rand.New(rand.NewSource(seed))
	if w.hot {
		return hotDraws(corpus, order, hotPass, 4*hotPass), hotPass, want, nil
	}
	plans := max(1, w.plans)
	queries := len(corpus) / plans
	for rot := 0; rot < plans; rot++ {
		for _, c := range order.Perm(queries) {
			timed = append(timed, corpus[c*plans+(c+rot)%plans])
		}
	}
	return timed, queries, want, nil
}

// setupReps is how many times a reported run sets the system up. The
// first set-up of a process also pays for growing the heap, so a
// single one would measure the runtime more than the index build.
const setupReps = 3

// setUp opens a fresh environment and warms it up, reps times over,
// keeping the last. It returns each set-up's time in seconds and the
// live heap it left.
func (w mineWorkload) setUp(o options, reps int) (e *env, secs, heaps []float64, err error) {
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		if e, err = openEnv(w.fixtures(o.quick)); err != nil {
			return nil, nil, nil, err
		}
		warm, err := w.warmList(e)
		if err != nil {
			e.close()
			return nil, nil, nil, err
		}
		if p := e.drive(warm, o.clients, 0, len(warm), nil); p.failed > 0 {
			e.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", p.failed, len(warm), p.firstErr)
		}
		secs = append(secs, time.Since(start).Seconds())
		heaps = append(heaps, heapAfterGC())
	}
	return e, secs, heaps, nil
}

// checker returns the judge of timed replies: the rule set must equal
// the facade's for the request's answer slot, and the reply must be a
// cache hit on the hot workload and a fresh execution on the others.
func (w mineWorkload) checker(want []answer) func(r request, rep mineReply) error {
	return func(r request, rep mineReply) error {
		if got := wireAnswer(rep.Rules); got != want[r.answer] {
			return fmt.Errorf("answer mismatch on %s: got %d rules (hash %x), want %d (hash %x)",
				r.query.Canonical()+r.ql, got.rules, got.hash, want[r.answer].rules, want[r.answer].hash)
		}
		if rep.Cached != w.hot {
			return fmt.Errorf("reply cached=%v, want %v", rep.Cached, w.hot)
		}
		return nil
	}
}

// run measures the workload's end-to-end metrics with tracing off:
// whole passes over the timed list until the time is up.
func (w mineWorkload) run(o options) (*result, error) {
	e, setups, heaps, err := w.setUp(o, o.reps)
	if err != nil {
		return nil, err
	}
	defer e.close()
	timed, passLen, want, err := w.timedList(e, o.seed)
	if err != nil {
		return nil, err
	}

	res := newResult(w.name)
	check := w.checker(want)
	var passes []pass
	before := memNow()
	for start := time.Now(); time.Since(start) < o.duration(); {
		p := e.drive(timed, o.clients, len(passes)*passLen, passLen, check)
		lat := make([]time.Duration, len(p.samples))
		for i, s := range p.samples {
			lat[i] = s.latency
		}
		passes = append(passes, pass{p.wall, lat})
		res.attempted += passLen
		res.failed += p.failed
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	mem := memSince(before)
	res.setSetUp(setups, heaps)
	res.setTimings(passes, 1)
	res.set("alloc_kb_per_req", float64(mem.allocBytes)/1024/float64(res.attempted), res.attempted)
	return res, nil
}

// heapAfterGC is the live heap in MB after forced collection: the
// resident cost of indexes, caches and delta state. Two cycles: a
// closed environment hangs off objects with finalizers (connections,
// listeners), which the first cycle only queues.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
