package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpSearch:          "SEARCH",
		OpSupportedSearch: "SUPPORTED-SEARCH",
		OpEliminate:       "ELIMINATE",
		OpUnion:           "UNION",
		OpVerify:          "VERIFY",
		OpSelect:          "SELECT",
		OpARM:             "ARM",
	}
	for op, name := range want {
		if got := op.String(); got != name {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, name)
		}
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range op renders %q", got)
	}
}

func TestTraceRecord(t *testing.T) {
	tr := &Trace{}
	tr.Record(OpSearch, time.Millisecond, -1, 10, 1, "nodes=3")
	tr.Record(OpEliminate, 2*time.Millisecond, 10, 4, 8, "checks=7")
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	s := tr.Spans[1]
	if s.Op != OpEliminate || s.In != 10 || s.Out != 4 || s.Workers != 8 || s.Detail != "checks=7" {
		t.Errorf("span mismatch: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram("q", "", "", DefaultLatencyBounds())
	// 100 observations spread evenly across 1..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050*time.Millisecond {
		t.Fatalf("sum = %v, want 5.05s", h.Sum())
	}
	// The factor-2 bucket grid brackets every quantile within 2x: the
	// first bucket whose cumulative count reaches the quantile's rank has
	// an upper bound in [exact, 2·exact).
	for _, tc := range []struct {
		q     float64
		exact time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.95, 95 * time.Millisecond}, {0.99, 99 * time.Millisecond}} {
		cum := int64(0)
		for i, b := range h.bounds {
			if cum += h.buckets[i].Load(); float64(cum) >= tc.q*100 {
				if got := time.Duration(b * float64(time.Second)); got < tc.exact || got >= 2*tc.exact {
					t.Errorf("p%v lands in the bucket bounded by %v, want within [%v, %v)", 100*tc.q, got, tc.exact, 2*tc.exact)
				}
				break
			}
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram("q", "", "", []float64{0.001, 0.002})
	h.Observe(time.Hour) // beyond every bound -> +Inf bucket
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.buckets[len(h.bounds)].Load(); got != 1 {
		t.Errorf("+Inf bucket holds %d observations, want 1", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("q", "", "", DefaultLatencyBounds())
	var wg sync.WaitGroup
	const (
		goroutines = 8
		each       = 1000
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i%50+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*each {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*each)
	}
	var inBuckets int64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != goroutines*each {
		t.Fatalf("bucket sum = %d, want %d", inBuckets, goroutines*each)
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("colarm_queries_total", "Queries served.")
	b := r.Counter("colarm_queries_total", "Queries served.")
	if a != b {
		t.Fatalf("re-registration returned a different counter")
	}
	labeled := r.CounterWith("colarm_queries_total", `dataset="chess"`, "Queries served.")
	if labeled == a {
		t.Fatalf("labeled counter must be distinct from the unlabeled one")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("colarm_queries_total", "Queries served.").Inc()
			}
		}()
	}
	wg.Wait()
	if got := a.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.CounterWith("colarm_queries_total", `dataset="chess"`, "Queries served.")
	c.Add(7)
	r.CounterWith("colarm_queries_total", `dataset="mushroom"`, "Queries served.").Add(2)
	h := r.Histogram("colarm_query_seconds", "", "Query latency.", []float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP colarm_queries_total Queries served.",
		"# TYPE colarm_queries_total counter",
		`colarm_queries_total{dataset="chess"} 7`,
		`colarm_queries_total{dataset="mushroom"} 2`,
		"# TYPE colarm_query_seconds histogram",
		`colarm_query_seconds_bucket{le="0.001"} 1`,
		`colarm_query_seconds_bucket{le="0.01"} 2`,
		`colarm_query_seconds_bucket{le="+Inf"} 3`,
		"colarm_query_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE headers must appear exactly once per family.
	if n := strings.Count(out, "# TYPE colarm_queries_total"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
}
