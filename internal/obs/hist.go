package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds returns the standard latency bucket upper bounds
// in seconds: 26 exponential buckets doubling from 1µs to ~33.5s,
// bracketing everything from a sub-millisecond salary-scale query to a
// paper-scale ARM run. Observations beyond the last bound land in the
// implicit +Inf bucket.
func DefaultLatencyBounds() []float64 {
	out := make([]float64, 26)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram is a fixed-bucket histogram of durations. Observing costs
// one binary search plus three atomic adds — no locks, no allocation —
// so it is safe (and cheap) under any number of concurrent recorders.
type Histogram struct {
	name   string
	labels string
	help   string
	bounds []float64 // upper bounds in seconds, ascending
	// buckets[i] counts observations <= bounds[i] (non-cumulative);
	// the extra last slot is the +Inf bucket.
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(name, labels, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, labels: labels, help: help}
	h.bounds = append([]float64(nil), bounds...)
	sort.Float64s(h.bounds)
	h.buckets = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one duration. A negative duration (a clock step
// backwards, or a caller subtracting timestamps in the wrong order) is
// clamped to zero: letting it through would land it in the first bucket
// while driving _sum negative, corrupting Prometheus rate() math over
// the scraped series.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }
