package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"colarm"
	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/colarmql"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/relation"
	"colarm/internal/rtree"
)

const (
	// traceSample is how many requests (or batches) from the head of
	// the timed list the traced run replays; fixed, so the counts it
	// reports repeat exactly for a seed. ISSUE.md asked for 200; a
	// forced-MIP request replayed at five boundaries costs ~0.1 s, and
	// a traced run has to fit the same ~20 s as an untraced one.
	traceSample      = 100
	traceSampleQuick = 12
	// kernelSample is how many prestored CFIs one request's kernel
	// loops (AndCount, ClosureID, LookupID) touch.
	kernelSample = 256
)

func (o options) sample() int {
	if o.quick {
		return traceSampleQuick
	}
	return traceSample
}

func sinceMs(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// kernelIndexes builds the traced run's own MIP-index per dataset —
// from the same CSV the served engine was loaded from — timing the two
// offline kernels on the way: CHARM at the primary and the whole index
// build. The times are summed over the workload's datasets.
func kernelIndexes(tables []*table, res *result) ([]*mip.Index, error) {
	var out []*mip.Index
	var charmMs, buildMs float64
	for _, t := range tables {
		csv, err := t.csv()
		if err != nil {
			return nil, err
		}
		rel, err := relation.ReadCSV(t.name, bytes.NewReader(csv))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := mip.Build(rel, mip.Options{PrimarySupport: t.primary})
		if err != nil {
			return nil, err
		}
		buildMs += sinceMs(start)
		start = time.Now()
		if _, err := charm.MineSupport(rel, idx.Space, t.primary); err != nil {
			return nil, err
		}
		charmMs += sinceMs(start)
		out = append(out, idx)
	}
	res.set("charm.mine_ms", charmMs, len(tables))
	res.set("mip.build_ms", buildMs, len(tables))
	return out, nil
}

// kernelSink keeps the kernel loops' results alive.
var kernelSink int

// kernels times, on the run's own index, the kernel calls a request's
// operators are made of, over the request's own region, and records
// them under their own root (they are samples, not the request's
// actual call counts, so they stay out of the http tree).
func kernels(rec *recorder, request int, idx *mip.Index, q colarm.Query, calls *int) error {
	reg, err := idx.RegionFromSelections(q.Range)
	if err != nil {
		return err
	}
	start := time.Now()
	dq := idx.SubsetBitmap(reg)
	dBitmap := time.Since(start)

	minCount := charm.CountFor(q.MinSupport, dq.Count())
	start = time.Now()
	idx.RTree.SupportedSearch(reg, minCount, func(rtree.Entry, itemset.Rel) bool { kernelSink++; return true })
	dSearch := time.Since(start)

	n := idx.ITTree.Size()
	stride := max(1, n/kernelSample)
	var ids []int
	for id := 0; id < n && len(ids) < kernelSample; id += stride {
		ids = append(ids, id)
	}
	start = time.Now()
	for _, id := range ids {
		kernelSink += bitset.AndCount(idx.ITTree.Tids(id), dq)
	}
	dAnd := time.Since(start)
	start = time.Now()
	for _, id := range ids {
		// VERIFY asks for the closure of rule antecedents: proper
		// subsets of a closed set.
		items := idx.ITTree.Set(id).Items
		c, _ := idx.ITTree.ClosureID(items[:len(items)-1])
		kernelSink += c
	}
	dClosure := time.Since(start)
	start = time.Now()
	for _, id := range ids {
		c, _ := idx.ITTree.LookupID(idx.ITTree.Set(id).Items)
		kernelSink += c
	}
	dLookup := time.Since(start)
	*calls += len(ids)

	root := rec.root(request, "kernels", dBitmap+dSearch+dAnd+dClosure+dLookup)
	rec.child(root, "mip.subset_bitmap", dBitmap)
	rec.child(root, "rtree.search", dSearch)
	rec.child(root, "bitset.andcount", dAnd)
	rec.child(root, "ittree.closure", dClosure)
	rec.child(root, "ittree.lookup", dLookup)
	return nil
}

// serverCounts reports the serving layer's counters over an interval
// of /metrics.
func serverCounts(res *result, before, after map[string]float64) {
	hits := promDelta(before, after, "colarm_cache_hits_total")
	misses := promDelta(before, after, "colarm_cache_misses_total")
	if hits+misses > 0 {
		res.set("server.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	res.set("server.cache_evictions", promDelta(before, after, "colarm_cache_evictions_total"), 1)
	res.set("server.admission_queued", promDelta(before, after, "colarm_admission_queued_total"), 1)
	res.set("server.admission_rejected", promDelta(before, after, "colarm_admission_rejected_total"), 1)
	chosen := promDelta(before, after, "colarm_plan_chosen_total")
	if chosen > 0 {
		res.set("core.chosen_arm_ratio", promDelta(before, after, "colarm_plan_chosen_total", `plan="ARM"`)/chosen, int(chosen))
	}
}

// replyCounts reports what the replies' stats blocks and sizes say
// about the work per request, and the runtime's activity over the
// pass that produced them.
func replyCounts(res *result, samples []sample, mem memDelta) {
	n := len(samples)
	if n == 0 {
		return
	}
	var sum wireStats
	bytes := 0
	for _, s := range samples {
		bytes += s.bytes
		sum.RNodesVisited += s.stats.RNodesVisited
		sum.Candidates += s.stats.Candidates
		sum.SupportChecks += s.stats.SupportChecks
		sum.Eliminated += s.stats.Eliminated
		sum.OracleCalls += s.stats.OracleCalls
		sum.OracleMisses += s.stats.OracleMisses
		sum.RulesEmitted += s.stats.RulesEmitted
	}
	per := func(v int) float64 { return float64(v) / float64(n) }
	res.set("server.resp_kb_per_req", per(bytes)/1024, n)
	res.set("plans.candidates_per_req", per(sum.Candidates), n)
	res.set("plans.support_checks_per_req", per(sum.SupportChecks), n)
	res.set("plans.rnodes_per_req", per(sum.RNodesVisited), n)
	res.set("plans.rules_per_req", per(sum.RulesEmitted), n)
	if sum.Candidates > 0 {
		res.set("plans.eliminated_ratio", float64(sum.Eliminated)/float64(sum.Candidates), sum.Candidates)
	}
	if sum.OracleCalls > 0 {
		res.set("plans.oracle_miss_ratio", float64(sum.OracleMisses)/float64(sum.OracleCalls), sum.OracleCalls)
	}
	res.set("runtime.mallocs_per_req", float64(mem.mallocs)/float64(n), n)
	res.set("runtime.gc_cycles", float64(mem.gcCycles), 1)
	res.set("runtime.gc_pause_ms", float64(mem.gcPause)/float64(time.Millisecond), int(mem.gcCycles))
}

// operatorMetric maps a plan operator's trace name to its metric.
var operatorMetric = map[string]string{
	"SELECT":           "plans.select_ms",
	"SEARCH":           "plans.search_ms",
	"SUPPORTED-SEARCH": "plans.search_ms",
	"ELIMINATE":        "plans.eliminate_ms",
	"UNION":            "plans.union_ms",
	"VERIFY":           "plans.verify_ms",
	"ARM":              "plans.arm_ms",
}

// traced replays the head of the workload's timed list, single client,
// at successively inner layer boundaries and reports the per-layer
// metrics. End-to-end metrics are never taken from this run.
func (w mineWorkload) traced(o options) (*result, error) {
	e, _, _, err := w.setUp(o, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	timed, _, want, err := w.timedList(e, o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult(w.name)
	kidx, err := kernelIndexes(e.tables, res)
	if err != nil {
		return nil, err
	}
	list := timed[:min(len(timed), o.sample())]
	rec := &recorder{}
	ctx := context.Background()

	// Boundary 1, the HTTP round trip: one closed-loop client over the
	// sample, with the server's counters and the runtime's read around
	// it.
	before, err := e.scrape()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	roots := make([]int, len(list))
	mem := memNow()
	p := e.drive(list, 1, 0, len(list), w.checker(want))
	memUsed := memSince(mem)
	if p.failed > 0 {
		res.attempted, res.failed, res.firstErr = len(list), p.failed, p.firstErr
		res.fillPerLayer()
		return res, nil
	}
	after, err := e.scrape()
	if err != nil {
		return nil, err
	}
	byTable := make([][]time.Duration, len(e.tables))
	for i, s := range p.samples { // one client: samples are in list order
		roots[i] = rec.root(i, "http", s.latency)
		byTable[s.table] = append(byTable[s.table], s.latency)
	}
	serverCounts(res, before, after)
	replyCounts(res, p.samples, memUsed)
	for ti, t := range e.tables {
		if name := "dataset." + t.name + ".latency_p50_ms"; units[name] != "" { // -quick's salary has no entry
			res.set(name, median(ms(byTable[ti])), len(byTable[ti]))
		}
	}

	// The inner boundaries, each a separate execution of the same
	// request.
	handler := e.srv.Handler()
	var tracedSum, untracedSum time.Duration
	kernelCalls := 0
	for i, r := range list {
		t, eng := e.tables[r.table], e.engines[r.table]

		// Boundary 2: the handler, called directly into a recorder.
		body, ctype := r.body(t.name)
		req := httptest.NewRequest(http.MethodPost, "/v1/mine", bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rw := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rw, req)
		h := rec.child(roots[i], "handler", time.Since(start))
		if rw.Code != http.StatusOK {
			return nil, fmt.Errorf("direct handler call: status %d: %.200s", rw.Code, rw.Body)
		}

		// Boundary 3: parsing and canonicalisation.
		q := r.query
		if r.ql != "" {
			start = time.Now()
			_, err := colarmql.Parse(r.ql)
			rec.child(h, "parse", time.Since(start))
			if err != nil {
				return nil, err
			}
		}
		start = time.Now()
		canonical := q.Canonical()
		rec.child(h, "canonical", time.Since(start))
		kernelSink += len(canonical)
		if w.hot {
			continue // a cache hit goes no deeper
		}

		// Boundary 4: the facade, traced (its operator spans become
		// children) and untraced (the difference is the tracing cost).
		tq := q
		tq.Trace = true
		start = time.Now()
		tres, err := eng.MineContext(ctx, tq)
		dTraced := time.Since(start)
		if err != nil {
			return nil, err
		}
		m := rec.child(h, "mine", dTraced)
		if q.Plan == colarm.Auto {
			start = time.Now()
			_, err := eng.Explain(q)
			rec.child(m, "choose", time.Since(start))
			if err != nil {
				return nil, err
			}
		}
		for _, sp := range tres.Trace.Spans {
			rec.child(m, sp.Operator, sp.Duration)
		}
		start = time.Now()
		if _, err := eng.MineContext(ctx, q); err != nil {
			return nil, err
		}
		untracedSum += time.Since(start)
		tracedSum += dTraced

		// Boundary 5: the kernels.
		if err := kernels(rec, i, kidx[r.table], q, &kernelCalls); err != nil {
			return nil, err
		}
	}
	if untracedSum > 0 {
		res.set("trace.overhead_ratio", float64(tracedSum)/float64(untracedSum), len(list))
	}
	if w.shards {
		if err := shardReplay(e, list, res); err != nil {
			return nil, err
		}
	}

	spanMetrics(rec, res, len(list), kernelCalls)
	res.attempted = len(list)
	res.fillPerLayer()
	return res, rec.finish(o, w.name)
}

// spanMetrics turns the recorded spans into per-layer times: means per
// sampled request, so that the shares of one tree add up.
func spanMetrics(rec *recorder, res *result, requests, kernelCalls int) {
	self := rec.selfTimes()
	selfOf := func(id int) time.Duration { return self[id] }
	durOf := func(id int) time.Duration { return rec.spans[id].duration() }
	perRequest := func(metric, span string, fn func(int) time.Duration, unit time.Duration) {
		if sum, n := rec.total(span, fn); n > 0 {
			res.set(metric, float64(sum)/float64(unit)/float64(requests), n)
		}
	}
	perSpan := func(metric, span string, unit time.Duration) {
		if sum, n := rec.total(span, durOf); n > 0 {
			res.set(metric, float64(sum)/float64(unit)/float64(n), n)
		}
	}
	perRequest("server.transport_ms", "http", selfOf, time.Millisecond)
	perRequest("server.handler_ms", "handler", durOf, time.Millisecond)
	perRequest("server.self_ms", "handler", selfOf, time.Millisecond)
	perSpan("colarmql.parse_us", "parse", time.Microsecond)
	perSpan("colarm.canonical_us", "canonical", time.Microsecond)
	perSpan("core.choose_us", "choose", time.Microsecond)
	perRequest("colarm.mine_ms", "mine", durOf, time.Millisecond)
	perRequest("colarm.self_ms", "mine", selfOf, time.Millisecond)
	ops := map[string]time.Duration{}
	for _, s := range rec.spans {
		if metric, ok := operatorMetric[s.Name]; ok {
			ops[metric] += s.duration()
		}
	}
	for metric, sum := range ops {
		res.set(metric, float64(sum)/float64(time.Millisecond)/float64(requests), requests)
	}
	perSpan("rtree.search_us", "rtree.search", time.Microsecond)
	perSpan("mip.subset_bitmap_us", "mip.subset_bitmap", time.Microsecond)
	for metric, span := range map[string]string{
		"bitset.andcount_ns": "bitset.andcount",
		"ittree.closure_ns":  "ittree.closure",
		"ittree.lookup_ns":   "ittree.lookup",
	} {
		if sum, _ := rec.total(span, durOf); kernelCalls > 0 {
			res.set(metric, float64(sum)/float64(kernelCalls), kernelCalls)
		}
	}
}

// shardReplay replays the sample's mushroom requests in-process on the
// served (monolithic) engine and on a two-shard engine over the same
// dataset: the evidence ROADMAP item 1(a) asks for while Shards=0 is
// the default.
func shardReplay(e *env, list []request, res *result) error {
	ti := -1
	for i, t := range e.tables {
		if t.name == "mushroom" {
			ti = i
		}
	}
	if ti < 0 {
		return nil
	}
	start := time.Now()
	sharded, err := colarm.Open(e.tables[ti].ds, colarm.Options{PrimarySupport: e.tables[ti].primary, Shards: 2})
	if err != nil {
		return err
	}
	res.set("shard.k2_setup_ms", sinceMs(start), 1)
	var k1, k2 []float64
	for _, r := range list {
		if r.table != ti {
			continue
		}
		for _, side := range []struct {
			eng *colarm.Engine
			out *[]float64
		}{{e.engines[ti], &k1}, {sharded, &k2}} {
			start := time.Now()
			if _, err := side.eng.Mine(r.query); err != nil {
				return err
			}
			*side.out = append(*side.out, sinceMs(start))
		}
	}
	res.set("shard.k1_mine_ms", mean(k1), len(k1))
	res.set("shard.k2_mine_ms", mean(k2), len(k2))
	return nil
}

// fillPerLayer reports every per-layer metric the run did not take as
// 0: the contract wants the whole catalog from every workload.
func (r *result) fillPerLayer() {
	for name := range units {
		if _, ok := r.metrics[name]; !ok && !endToEnd[name] {
			r.set(name, 0, 0)
		}
	}
}

// finish writes the spans out, to -trace-out or, by default, into the
// build directory.
func (rec *recorder) finish(o options, workload string) error {
	path := o.traceOut
	if path == "" {
		path = ".bench_build/trace-" + workload + ".json"
	}
	return rec.write(path)
}

// traceIngestNotify runs the head of the batch loop with the server's
// counters read around it, forces the final rebuild, then replays the
// write path in-process on a fresh engine for the delta and standing
// layers' own times.
func traceIngestNotify(o options) (*result, error) {
	ie, _, _, err := setUpIngest(o, 1)
	if err != nil {
		return nil, err
	}
	defer ie.close()
	res := newResult("ingest_notify")
	if _, err := kernelIndexes(ie.tables, res); err != nil {
		return nil, err
	}
	rec := &recorder{}

	before, err := ie.scrape()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	memBefore := memNow()
	times, wall, err := ie.batches(o.sample())
	mem := memSince(memBefore)
	if err == nil {
		err = ie.finalCheck()
	}
	res.attempted = len(times)
	if err != nil {
		res.attempted++
		res.failed, res.firstErr = 1, err
		res.fillPerLayer()
		return res, nil
	}
	after, err := ie.scrape()
	if err != nil {
		return nil, err
	}
	serverCounts(res, before, after)
	res.set("standing.events", promDelta(before, after, "colarm_subscription_events_total", `type="diff"`), len(times))
	res.set("standing.diff_skipped", promDelta(before, after, "colarm_rule_diff_skipped_total"), len(times))

	var acks, mines, notifies []time.Duration
	perStream := make([][]time.Duration, len(ie.awaited))
	samples := make([]sample, len(times))
	for i, bt := range times {
		// One execution here, so the children are real sub-intervals:
		// the ack, then the read-after-write mine, then — the root's
		// self time — the rest of the wait for the slowest stream.
		root := rec.root(i, "notify", bt.notifyAll())
		rec.child(root, "ingest_ack", bt.ack)
		rec.child(root, "raw_mine", bt.mine)
		acks, mines, notifies = append(acks, bt.ack), append(mines, bt.mine), append(notifies, bt.notifyAll())
		for s, d := range bt.notify {
			perStream[s] = append(perStream[s], d)
		}
		samples[i] = sample{latency: bt.mine, bytes: bt.bytes, stats: bt.stats}
	}
	replyCounts(res, samples, mem)
	res.set("server.ingest_ack_p50_ms", median(ms(acks)), len(acks))
	res.set("ingest.mine_p50_ms", median(ms(mines)), len(mines))
	res.set("ingest.rows_per_s", float64(batchRows*len(times))/wall.Seconds(), len(times))
	res.set("dataset.mushroom.latency_p50_ms", median(ms(mines)), len(mines))
	var streamP50 []float64
	for _, ds := range perStream {
		streamP50 = append(streamP50, median(ms(ds)))
	}
	res.set("standing.notify_first_ms", slices.Min(streamP50), len(times))
	res.set("standing.notify_last_ms", slices.Max(streamP50), len(times))

	rebuildMs, err := ie.forceRebuild()
	if err != nil {
		return nil, err
	}
	res.set("core.rebuild_ms", rebuildMs, 1)

	viewBuild, diff, err := ie.inProcess(o, res)
	if err != nil {
		return nil, err
	}
	res.set("standing.notify_residual_ms", median(ms(notifies))-viewBuild-float64(len(ie.awaited))*diff, len(times))
	res.fillPerLayer()
	return res, rec.finish(o, "ingest_notify")
}

// forceRebuild posts an empty batch with rebuild:"force" and waits for
// the dataset's generation to bump; it returns the wait in ms.
func (ie *ingestEnv) forceRebuild() (float64, error) {
	name := ie.tables[0].name
	start := time.Now()
	ack, _, err := ie.ingest(ingestBody{Dataset: name, Rebuild: "force"})
	if err != nil {
		return 0, err
	}
	for time.Since(start) < eventTimeout {
		var detail struct {
			Generation uint64 `json:"generation"`
		}
		if err := ie.getJSON("/v1/datasets/"+name, &detail); err != nil {
			return 0, err
		}
		if detail.Generation > ack.Generation {
			return sinceMs(start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("forced rebuild of %s did not swap in within %s", name, eventTimeout)
}

// inProcess replays the write path through the facade on a fresh
// engine with no server and no subscribers: the apply itself, the
// merged-view build (the first forced-MIP Mine after an apply minus
// the steady-state Mine of the same query), and an incremental
// RuleDiff against a full re-mine. It returns the view-build and diff
// medians in ms.
func (ie *ingestEnv) inProcess(o options, res *result) (viewBuild, diff float64, err error) {
	t := ie.tables[0]
	eng, err := colarm.Open(t.ds, colarm.Options{PrimarySupport: t.primary})
	if err != nil {
		return 0, 0, err
	}
	q := ie.mine.query
	first, err := eng.Mine(q)
	if err != nil {
		return 0, 0, err
	}
	prev := first.Rules
	var apply, build, diffs, remines []time.Duration
	for n := 0; n < o.sample()/4; n++ {
		var rows []map[string]string
		for i := 0; i < batchRows/2; i++ {
			rows = append(rows, t.record(ie.hotRows[ie.rng.Intn(len(ie.hotRows))]))
		}
		start := time.Now()
		if _, err := eng.Ingest(rows, nil); err != nil {
			return 0, 0, err
		}
		apply = append(apply, time.Since(start))

		start = time.Now()
		if _, err := eng.Mine(q); err != nil {
			return 0, 0, err
		}
		cold := time.Since(start)
		start = time.Now()
		if _, err := eng.Mine(q); err != nil {
			return 0, 0, err
		}
		steady := time.Since(start)
		build = append(build, max(0, cold-steady))
		remines = append(remines, steady)

		start = time.Now()
		d, err := eng.RuleDiff(context.Background(), q, prev)
		if err != nil {
			return 0, 0, err
		}
		diffs = append(diffs, time.Since(start))
		prev = d.Rules
	}
	viewBuild, diff = median(ms(build)), median(ms(diffs))
	res.set("delta.apply_us", 1000*median(ms(apply)), len(apply))
	res.set("delta.view_build_ms", viewBuild, len(build))
	res.set("standing.diff_ms", diff, len(diffs))
	res.set("standing.remine_ms", median(ms(remines)), len(remines))
	return viewBuild, diff, nil
}
