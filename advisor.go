package colarm

import (
	"context"

	"colarm/internal/advisor"
	"colarm/internal/core"
	"colarm/internal/cost"
)

// The advisor report types are the engine's own, under the facade's
// names: nothing about them changes on the way out, so there is nothing
// to convert. Their JSON tags are the wire names of api/openapi.yaml —
// a value of any of them marshals to exactly what the HTTP API serves.
type (
	// UnitCosts are the cost model's five primitive unit costs in
	// nanoseconds — WordOp (one 64-bit bitmap word operation), BoxRel
	// (one box/region relation test), IDProbe (one record-id membership
	// probe), MapOp (one hash-map operation) and GenOp (one
	// rule-generation step) — fixed when the engine is opened: the
	// defaults, or this machine's measurements under Options.Calibrate.
	UnitCosts = cost.Units
	// IndexRecommendation is one index action the advisor's workload
	// analysis pays for: "build" a secondary MIP-index at a lower
	// primary support, or "drop" one that stopped winning queries.
	IndexRecommendation = advisor.Recommendation
	// SecondaryIndexInfo describes one installed secondary MIP-index;
	// only a Fresh one (covering exactly the current merged records)
	// joins the optimizer's argmin.
	SecondaryIndexInfo = core.SecondaryInfo
	// WorkloadStats summarizes the advisor's query-log window.
	WorkloadStats = advisor.WorkloadStats
)

// AdvisorReport is the index advisor's full state: the unit costs the
// optimizer prices with, the workload summary, pending recommendations,
// and the installed secondary indexes.
type AdvisorReport struct {
	Units           UnitCosts             `json:"units"`
	Workload        WorkloadStats         `json:"workload"`
	Recommendations []IndexRecommendation `json:"recommendations"`
	Secondaries     []SecondaryIndexInfo  `json:"secondaries"`
}

// Advisor returns the index advisor's current state without changing
// anything: the unit costs, the workload summary, and what the advisor
// would build or drop right now.
func (e *Engine) Advisor() AdvisorReport {
	return AdvisorReport{
		Units:           e.eng.Model.U,
		Workload:        e.eng.Advisor.WorkloadStats(),
		Recommendations: e.eng.Recommendations(),
		Secondaries:     e.eng.Secondaries(),
	}
}

// Recommendations returns the index actions the advisor's workload
// analysis currently pays for, without applying them.
func (e *Engine) Recommendations() []IndexRecommendation {
	return e.eng.Recommendations()
}

// ApplyRecommendations executes the advisor's current recommendations —
// building and dropping secondary indexes — and returns the ones
// applied. The engine serves queries throughout; each build or drop is
// an atomic swap of the index set.
func (e *Engine) ApplyRecommendations(ctx context.Context) ([]IndexRecommendation, error) {
	return e.eng.ApplyRecommendations(ctx)
}

// BuildSecondaryIndex mines a secondary MIP-index over the current
// merged records at the given primary support and installs it. Queries
// whose localized thresholds the base index's applicability gate forces
// to ARM are reclaimed by a secondary with a low enough primary count.
func (e *Engine) BuildSecondaryIndex(ctx context.Context, primarySupport float64) (SecondaryIndexInfo, error) {
	return e.eng.BuildSecondary(ctx, primarySupport)
}

// DropSecondaryIndex removes the secondary index installed at the given
// primary support, reporting whether one matched.
func (e *Engine) DropSecondaryIndex(primarySupport float64) bool {
	return e.eng.DropSecondary(primarySupport)
}

// SecondaryIndexes lists the installed secondary indexes.
func (e *Engine) SecondaryIndexes() []SecondaryIndexInfo {
	return e.eng.Secondaries()
}
