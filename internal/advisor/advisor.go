// Package advisor is the workload-driven index advisor: it keeps a
// bounded log of the queries an engine mined and mines that log for
// physical-design advice. Queries the applicability gate forced to the
// ARM plan — localized thresholds below the base index's
// primary-support count — argue for a second MIP-index at a lower
// primary support once their accumulated measured-over-estimated cost
// gap pays for the build; a secondary that stops winning queries argues
// for its own removal.
//
// The package is engine-agnostic: it consumes query observations and
// produces recommendations; the core engine owns applying them
// (building and dropping physical indexes).
package advisor

import (
	"sync"
	"time"
)

// Advisor is one engine's workload log. Safe for concurrent use;
// ObserveQuery is one ring append after a query has executed.
type Advisor struct {
	mu  sync.Mutex
	log []QueryObservation // ring of the last logWindow queries, newest last
}

// New creates an advisor with an empty workload log.
func New() *Advisor { return &Advisor{} }

// ObserveQuery appends one mined query to the workload log.
func (a *Advisor) ObserveQuery(q QueryObservation) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.log = append(a.log, q)
	if over := len(a.log) - logWindow; over > 0 {
		a.log = append(a.log[:0], a.log[over:]...)
	}
}

// Recommendations mines the workload log against the currently
// installed secondary indexes. buildCost is the engine's measured
// index-build duration (the price a build recommendation must pay for).
func (a *Advisor) Recommendations(records int, secondaries []SecondaryState, buildCost time.Duration) []Recommendation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return recommendations(a.log, records, secondaries, buildCost)
}

// WorkloadStats summarizes the logged window.
func (a *Advisor) WorkloadStats() WorkloadStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := WorkloadStats{Window: len(a.log)}
	for _, q := range a.log {
		if q.ForcedARM {
			st.ForcedARM++
		}
		if q.IndexUsed > 0 {
			st.SecondaryWins++
		}
	}
	return st
}
