package obs

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestObserveNegativeClamped pins the clamp: a negative duration must
// count as a zero observation (first bucket, zero sum), not poison the
// histogram's sum.
func TestObserveNegativeClamped(t *testing.T) {
	h := newHistogram("neg_seconds", "", "h", DefaultLatencyBounds())
	h.Observe(-5 * time.Second)
	if h.Count() != 1 {
		t.Fatalf("Count() = %d, want 1", h.Count())
	}
	if h.Sum() != 0 {
		t.Fatalf("Sum() = %v, want 0", h.Sum())
	}
	if got := h.buckets[0].Load(); got != 1 {
		t.Fatalf("first bucket = %d, want 1 (clamped observation)", got)
	}
	h.Observe(-time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	if h.Sum() != 3*time.Millisecond {
		t.Fatalf("Sum() = %v, want 3ms", h.Sum())
	}
}

// TestWritePrometheusMonotoneUnderConcurrentObserve scrapes a histogram
// while writer goroutines hammer Observe, and asserts every rendered
// exposition is internally consistent: cumulative buckets non-decreasing,
// the +Inf series at least the last finite bucket, and _count equal to
// +Inf. Before the fix, WritePrometheus rendered +Inf from a count
// loaded after the finite buckets, so a racing observation (which bumps
// its bucket before the count) could make +Inf read below the last
// finite cumulative bucket. Run under -race in CI.
func TestWritePrometheusMonotoneUnderConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mono_seconds", "", "h", nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Mix in-range and off-scale (+Inf bucket) observations.
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				if rng.Intn(10) == 0 {
					d = time.Hour
				}
				h.Observe(d)
			}
		}(int64(g) + 1)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for scrape := 0; scrape < 200; scrape++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatalf("scrape %d: %v", scrape, err)
		}
		var cums []int64
		inf, count := int64(-1), int64(-1)
		for _, line := range strings.Split(buf.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "mono_seconds_bucket{le=\"+Inf\"}"):
				inf = lastField(t, line)
			case strings.HasPrefix(line, "mono_seconds_bucket"):
				cums = append(cums, lastField(t, line))
			case strings.HasPrefix(line, "mono_seconds_count"):
				count = lastField(t, line)
			}
		}
		if len(cums) == 0 || inf < 0 || count < 0 {
			t.Fatalf("scrape %d: incomplete exposition:\n%s", scrape, buf.String())
		}
		for i := 1; i < len(cums); i++ {
			if cums[i] < cums[i-1] {
				t.Fatalf("scrape %d: bucket %d cumulative %d < previous %d", scrape, i, cums[i], cums[i-1])
			}
		}
		if inf < cums[len(cums)-1] {
			t.Fatalf("scrape %d: le=\"+Inf\" %d below last finite bucket %d", scrape, inf, cums[len(cums)-1])
		}
		if count != inf {
			t.Fatalf("scrape %d: _count %d != le=\"+Inf\" %d", scrape, count, inf)
		}
	}
}

func lastField(t *testing.T, line string) int64 {
	t.Helper()
	fields := strings.Fields(line)
	v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return v
}
