package colarm

import (
	"fmt"
	"strings"
	"time"

	"colarm/internal/obs"
)

// TraceSpan is one operator's execution record inside a query trace.
type TraceSpan struct {
	// Operator is the paper's operator name: SEARCH, SUPPORTED-SEARCH,
	// ELIMINATE, UNION, VERIFY, SELECT or ARM.
	Operator string
	Duration time.Duration
	// In and Out count the items entering and leaving the operator
	// (candidate itemsets, records, rules — whatever the operator
	// consumes/produces); -1 means not applicable.
	In  int
	Out int
	// Workers is the number of goroutines the operator fanned out to
	// (1 for serial sections).
	Workers int
	// Detail carries operator-specific counters, e.g.
	// "filtered=3 checks=42 vecs=11 pruned=9 eliminated=23".
	Detail string
	// Predicted is the cost model's estimate for this operator, in model
	// nanoseconds, to read beside Duration. It is 0 when the plan was
	// forced (nothing was estimated) and for UNION, which has no cost
	// term of its own.
	Predicted float64
}

// Trace is the per-operator execution trace of one mined query,
// attached to Result when Query.Trace is set.
type Trace struct {
	Plan  string // executed plan name, e.g. "SS-E-V"
	Total time.Duration
	Spans []TraceSpan
}

// newTrace converts the executor's internal trace; nil in, nil out.
func newTrace(tr *obs.Trace) *Trace {
	if tr == nil {
		return nil
	}
	out := &Trace{Plan: tr.Label, Total: tr.Total}
	for _, s := range tr.Spans {
		out.Spans = append(out.Spans, TraceSpan{
			Operator:  s.Op.String(),
			Duration:  s.Duration,
			In:        s.In,
			Out:       s.Out,
			Workers:   s.Workers,
			Detail:    s.Detail,
			Predicted: s.Predicted,
		})
	}
	return out
}

// Tree renders the trace as an operator tree, one line per span:
//
//	SS-E-V  1.234ms
//	├─ SUPPORTED-SEARCH      312µs  out=57  pred=280µs  (nodes=9 entries=57 contained=12 partial=45)
//	├─ ELIMINATE             501µs  in=57 out=31  ×4  pred=655µs  (filtered=3 checks=42 vecs=11 pruned=9 eliminated=23)
//	└─ VERIFY                401µs  in=31 out=18  ×4  pred=1.2ms  (oracle=120 misses=14)
//
// pred= is the cost model's estimate for the operator and appears only
// when the optimizer chose the plan.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s\n", t.Plan, t.Total.Round(time.Microsecond))
	for i, s := range t.Spans {
		branch := "├─"
		if i == len(t.Spans)-1 {
			branch = "└─"
		}
		fmt.Fprintf(&b, "%s %-16s %10s", branch, s.Operator, s.Duration.Round(time.Microsecond))
		if s.In >= 0 {
			fmt.Fprintf(&b, "  in=%d", s.In)
		}
		if s.Out >= 0 {
			fmt.Fprintf(&b, " out=%d", s.Out)
		}
		if s.Workers > 1 {
			fmt.Fprintf(&b, "  ×%d", s.Workers)
		}
		if s.Predicted > 0 {
			pred := time.Duration(s.Predicted)
			if pred >= time.Microsecond {
				pred = pred.Round(time.Microsecond)
			}
			fmt.Fprintf(&b, "  pred=%s", pred)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, "  (%s)", s.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
