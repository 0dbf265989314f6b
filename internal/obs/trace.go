package obs

import "time"

// Span is one operator execution within a traced query.
type Span struct {
	Op       Op
	Duration time.Duration
	// In and Out count the items entering and leaving the operator
	// (candidates, qualified itemsets, rules, ...); -1 marks a side
	// that has no meaningful cardinality (SEARCH consumes a region,
	// not a list).
	In, Out int
	// Workers is the number of goroutines the operator actually fanned
	// out to; 1 means the serial path ran.
	Workers int
	// Detail carries operator-specific counters, preformatted by the
	// executor ("checks=31 eliminated=4", "oracle=96 misses=40", ...).
	Detail string
	// Predicted is the cost model's estimate for this operator in model
	// nanoseconds, set by the engine when the optimizer chose the plan;
	// 0 when the plan was forced or the operator has no cost term.
	Predicted float64
}

// Trace records the per-operator execution of one query. A Trace is
// owned by a single Run call: the executor records spans from the
// query's goroutine only (worker goroutines never touch it), so it
// needs no synchronization. Attach a fresh Trace per query.
type Trace struct {
	// Label is the executed plan's name, set by the executor.
	Label string
	// Total is the plan's end-to-end duration.
	Total time.Duration
	// Spans lists the operator executions in pipeline order.
	Spans []Span
}

// Record appends one operator span.
func (t *Trace) Record(op Op, d time.Duration, in, out, workers int, detail string) {
	t.Spans = append(t.Spans, Span{Op: op, Duration: d, In: in, Out: out, Workers: workers, Detail: detail})
}
