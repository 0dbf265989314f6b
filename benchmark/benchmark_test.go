package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"colarm"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// Ten passes of 100 operations a second each, six of them hit by a
// burst that halves the rate and doubles the latency: the quiet
// quartile does not see the bursts.
func TestQuietPassIgnoresBursts(t *testing.T) {
	var passes []pass
	for k := 0; k < 10; k++ {
		wall, lat := time.Second, 10*time.Millisecond
		if k >= 2 && k < 8 {
			wall, lat = 2*time.Second, 20*time.Millisecond
		}
		p := pass{wall: wall}
		for i := 0; i < 100; i++ {
			l := lat
			if i >= 95 {
				l = 4 * lat // the pass's slowest twentieth
			}
			p.latencies = append(p.latencies, l)
		}
		passes = append(passes, p)
	}
	rate, p50, p95, n := quietPass(passes)
	if rate != 100 || p50 != 10 || p95 != 10 || n != 1000 {
		t.Errorf("quietPass = %g/s, p50 %g ms, p95 %g ms, n %d; want 100, 10, 10, 1000", rate, p50, p95, n)
	}
	if rate, p50, p95, n := quietPass(nil); rate != 0 || p50 != 0 || p95 != 0 || n != 0 {
		t.Errorf("quietPass of nothing = %g %g %g %d", rate, p50, p95, n)
	}
}

// A hand-built tree: the root's children overlap each other and one
// runs past the root's end; a grandchild sits inside the first child.
func TestSpanSelfTimes(t *testing.T) {
	rec := &recorder{}
	root := rec.push(span{Parent: -1, Name: "root", StartNs: 0, EndNs: 100})
	a := rec.push(span{Parent: root, Name: "a", StartNs: 0, EndNs: 30})
	rec.push(span{Parent: root, Name: "b", StartNs: 20, EndNs: 50})
	rec.push(span{Parent: root, Name: "c", StartNs: 90, EndNs: 120})
	rec.push(span{Parent: a, Name: "a1", StartNs: 5, EndNs: 15})
	want := []time.Duration{40, 20, 30, 30, 10} // root: 100 − (0..50) − (90..100)
	if got := rec.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// child lays spans end to end from the parent's start.
	rec = &recorder{}
	root = rec.root(7, "http", 100)
	h := rec.child(root, "handler", 60)
	rec.child(h, "parse", 10)
	m := rec.child(h, "mine", 45)
	if s := rec.spans[m]; s.StartNs != 10 || s.EndNs != 55 || s.Request != 7 || s.Parent != h {
		t.Errorf("second child = %+v", s)
	}
	if got := rec.selfTimes(); got[root] != 40 || got[h] != 5 {
		t.Errorf("selfTimes = %v", got)
	}
}

func TestPromDelta(t *testing.T) {
	before := promSamples(strings.NewReader(`# HELP colarm_cache_hits_total hits
# TYPE colarm_cache_hits_total counter
colarm_cache_hits_total 3
colarm_plan_chosen_total{dataset="chess",plan="ARM"} 10
colarm_plan_chosen_total{dataset="chess",plan="S-E-V"} 1
garbage line
`))
	after := promSamples(strings.NewReader(`colarm_cache_hits_total 8
colarm_plan_chosen_total{dataset="chess",plan="ARM"} 14
colarm_plan_chosen_total{dataset="chess",plan="S-E-V"} 2
colarm_plan_chosen_total{dataset="pumsb",plan="ARM"} 5
colarm_query_seconds_bucket{dataset="chess",le="0.001"} 7
`))
	if got := promDelta(before, after, "colarm_cache_hits_total"); got != 5 {
		t.Errorf("hits delta = %g, want 5", got)
	}
	if got := promDelta(before, after, "colarm_plan_chosen_total"); got != 10 {
		t.Errorf("chosen delta = %g, want 10", got)
	}
	if got := promDelta(before, after, "colarm_plan_chosen_total", `plan="ARM"`); got != 9 {
		t.Errorf("ARM delta = %g, want 9", got)
	}
	if got := promDelta(before, after, "colarm_plan_chosen", `plan="ARM"`); got != 0 {
		t.Errorf("a name prefix matched: %g", got)
	}
}

func TestAnswerIgnoresRuleOrder(t *testing.T) {
	rules := []colarm.Rule{
		{Antecedent: []string{"a=1", "b=2"}, Consequent: []string{"c=3"}, SupportCount: 7, AntecedentCount: 9, SubsetSize: 20},
		{Antecedent: []string{"a=1"}, Consequent: []string{"b=2"}, SupportCount: 9, AntecedentCount: 12, SubsetSize: 20},
		{Antecedent: []string{"c=3"}, Consequent: []string{"a=1"}, SupportCount: 8, AntecedentCount: 8, SubsetSize: 20},
	}
	want := answerOf(rules)
	rules[0], rules[2] = rules[2], rules[0]
	if got := answerOf(rules); got != want {
		t.Errorf("reordered rules: %+v, want %+v", got, want)
	}
	rules[1].SupportCount++
	if got := answerOf(rules); got == want {
		t.Error("a changed count left the answer unchanged")
	}
	// Moving an item across the arrow is another rule.
	moved := []colarm.Rule{{Antecedent: []string{"a=1"}, Consequent: []string{"b=2", "c=3"}}}
	if answerOf(moved) == answerOf([]colarm.Rule{{Antecedent: []string{"a=1", "b=2"}, Consequent: []string{"c=3"}}}) {
		t.Error("antecedent and consequent are not told apart")
	}
}

func quickOptions(seconds float64) options {
	return options{seed: 1, seconds: seconds, quick: true, clients: 2, reps: 1}
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	e, err := openEnv(quickFixtures)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for _, w := range mineWorkloads {
		if w.hot {
			continue // serves another set of tables; its draws are covered below
		}
		build := func(seed int64) []request {
			list, passLen, _, err := w.timedList(e, seed)
			if err == nil && len(list)%passLen != 0 {
				t.Errorf("%s: list of %d is not whole passes of %d", w.name, len(list), passLen)
			}
			if err != nil {
				t.Fatal(err)
			}
			return list
		}
		one, again, other := build(1), build(1), build(2)
		// Every pass asks every query once, and the passes together
		// every (query, plan) pair once.
		passLen := len(one) / max(1, w.plans)
		pairs := map[string]bool{}
		for i := 0; i < len(one); i += passLen {
			slots := map[int]bool{}
			for _, r := range one[i : i+passLen] {
				slots[r.answer] = true
				pairs[fmt.Sprint(r.answer, r.query.Plan)] = true
			}
			if len(slots) != passLen {
				t.Errorf("%s: pass %d asks %d of %d queries", w.name, i/passLen, len(slots), passLen)
			}
		}
		if len(pairs) != len(one) {
			t.Errorf("%s: %d distinct (query, plan) pairs in a list of %d", w.name, len(pairs), len(one))
		}
		if !reflect.DeepEqual(one, again) {
			t.Errorf("%s: the same seed gave two lists", w.name)
		}
		if reflect.DeepEqual(one, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", w.name)
		}
	}
	texts := make([]request, hotQueries)
	for i := range texts {
		texts[i].answer = i
	}
	draw := func(seed int64) []request { return hotDraws(texts, rand.New(rand.NewSource(seed)), hotPass, 2*hotPass) }
	if !reflect.DeepEqual(draw(1), draw(1)) || reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("hotDraws does not follow its seed")
	}
	// Every pass of every seed is the same multiset: each text at least
	// once, the head of the working set most often.
	one, other := draw(1), draw(2)
	for _, pass := range [][]request{one[:hotPass], one[hotPass:], other[:hotPass]} {
		counts := make([]int, hotQueries)
		for _, r := range pass {
			counts[r.answer]++
		}
		if !sort.SliceIsSorted(counts, func(i, j int) bool { return counts[i] > counts[j] }) || counts[hotQueries-1] < 1 || counts[0] < hotPass/8 {
			t.Fatalf("a pass's popularity counts are %v", counts)
		}
	}
}

// The -quick profile end to end: every workload, untraced and traced,
// must check every answer and fail none.
func TestQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, r := range runners() {
		res, err := r.run(quickOptions(0.3))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", r.name, res.failed, res.attempted, res.firstErr)
		}
		for name := range endToEnd {
			if m, ok := res.metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", r.name, name, m.Value)
			}
		}

		o := quickOptions(0.3)
		o.trace = true
		o.traceOut = filepath.Join(dir, r.name+".json")
		res, err = r.trace(o)
		if err != nil {
			t.Fatalf("%s traced: %v", r.name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s traced: %d failed: %v", r.name, res.failed, res.firstErr)
		}
		for name := range units {
			if _, ok := res.metrics[name]; !ok && !endToEnd[name] {
				t.Errorf("%s traced: per-layer metric %s missing", r.name, name)
			}
		}
		var spans []span
		raw, err := os.ReadFile(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s traced: span file: %d spans, %v", r.name, len(spans), err)
		}
		switch r.name {
		case "mine_hot":
			if got := res.metrics["server.cache_hit_ratio"].Value; got != 1 {
				t.Errorf("mine_hot cache hit ratio = %g, want 1", got)
			}
		case "mine_mip", "mine_auto":
			if got := res.metrics["server.cache_hit_ratio"].Value; got != 0 {
				t.Errorf("%s cache hit ratio = %g, want 0", r.name, got)
			}
		case "ingest_notify":
			if got, want := res.metrics["standing.diff_skipped"].Value, float64(traceSampleQuick); got != want {
				t.Errorf("cold subscription skipped %g batches, want %g", got, want)
			}
		}
	}
}

// BENCHMARK.json and the catalog must name the same metrics with the
// same units, and the workloads the program runs.
func TestSpecMatchesCatalog(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(ms []specMetric, e2e bool) {
		for _, m := range ms {
			seen[m.Name] = true
			if units[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json says %q, catalog %q", m.Name, m.Unit, units[m.Name])
			}
			if endToEnd[m.Name] != e2e {
				t.Errorf("%s: listed on the wrong side of BENCHMARK.json", m.Name)
			}
			if e2e && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %g", m.Name, m.Bound)
			}
		}
	}
	check(sp.EndToEnd, true)
	check(sp.PerLayer, false)
	for name := range units {
		if !seen[name] {
			t.Errorf("%s is in the catalog but not in BENCHMARK.json", name)
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, r := range runners() {
		have = append(have, r.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency ...float64) string {
		path := filepath.Join(dir, name)
		for _, l := range latency {
			res := newResult("mine_hot")
			res.set("latency_p50_ms", l, 100)
			res.set("throughput_rps", 1000/l, 100)
			if err := res.appendTo(path, quickOptions(1)); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", 1.00, 1.02, 0.98)
	same := write("same.json", 1.05, 1.03, 1.04)
	worse := write("worse.json", 1.30, 1.25, 1.28)
	var out bytes.Buffer
	if ok, err := compareFiles(&out, a, same); err != nil || !ok {
		t.Errorf("4%% apart: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareFiles(&out, a, worse); err != nil || ok {
		t.Errorf("28%% worse: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "EXCEEDED") {
		t.Errorf("no verdict printed:\n%s", out.String())
	}
	// Better is never a failure.
	if ok, _ := compareFiles(&out, worse, a); !ok {
		t.Error("an improvement was reported as exceeding the bound")
	}
}
