package colarm

import (
	"colarm/internal/delta"
)

// ApplyNotice reports one accepted ingest batch to apply observers
// registered with Engine.Subscribe: the version-clock interval the
// batch covered and — through Affects — whether the batch can have
// changed a given localized query's rule set.
type ApplyNotice struct {
	// Generation is the engine generation the batch applied to.
	Generation uint64
	// FromVersion and ToVersion delimit the delta version-clock
	// interval the batch covers (ToVersion = FromVersion + 1).
	FromVersion, ToVersion uint64

	rows [][]int32
	eng  *Engine
}

// NumRows reports how many record tuples the batch changed (inserted
// rows plus deleted rows).
func (n ApplyNotice) NumRows() int { return len(n.rows) }

// Affects reports whether the batch can have changed q's localized
// rule set: whether any inserted or deleted record lies inside q's
// focal region. Localized rules are computed entirely within the focal
// subset, so a batch that neither adds a record to the subset nor
// removes one from it leaves the rule set — supports, confidences and
// all derived measures — bit-for-bit unchanged; callers use this as
// the incremental gate that skips re-mining for untouched regions.
// The error mirrors Mine's validation (unknown attributes or values).
func (n ApplyNotice) Affects(q Query) (bool, error) {
	pq, err := n.eng.buildQuery(q)
	if err != nil {
		return false, err
	}
	point := make([]int, n.eng.ds.rel.NumAttrs())
	for _, row := range n.rows {
		for a, v := range row {
			point[a] = int(v)
		}
		if pq.Region.ContainsPoint(point) {
			return true, nil
		}
	}
	return false, nil
}

// Subscribe registers fn to observe every subsequently accepted ingest
// batch on this engine. The callback runs synchronously on the
// ingesting goroutine immediately after the batch applies — it must
// return quickly and must not call back into the engine (Mine,
// RuleDiff, Ingest) directly; hand the notice to a worker goroutine
// that does the mining, as the standing-query subscription manager
// does. The returned cancel removes the observer; notices never arrive
// after cancel returns on the registering goroutine's side of the
// usual memory-model caveats. A rebuilt engine starts with no
// observers — re-subscribe after swapping engines.
func (e *Engine) Subscribe(fn func(ApplyNotice)) (cancel func()) {
	return e.delta.Observe(func(ap delta.Applied) {
		fn(ApplyNotice{
			Generation:  e.gen,
			FromVersion: ap.FromVersion,
			ToVersion:   ap.ToVersion,
			rows:        ap.Rows,
			eng:         e,
		})
	})
}

// Version returns the engine's current delta version-clock reading
// (0 when no post-build batch has applied). Together with Generation
// it locates the engine's state on the (generation, version) timeline
// that standing-query diff events are tagged with.
func (e *Engine) Version() uint64 { return e.delta.Staleness().Version }
