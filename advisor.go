package colarm

import (
	"context"

	"colarm/internal/advisor"
	"colarm/internal/core"
	"colarm/internal/cost"
)

// The self-tuning report types are the engine's own, under the facade's
// names: nothing about them changes on the way out, so there is nothing
// to convert. Their JSON tags are the wire names of api/openapi.yaml —
// a value of any of them marshals to exactly what the HTTP API serves.
type (
	// UnitCosts are the cost model's five primitive unit costs in
	// nanoseconds — WordOp (one 64-bit bitmap word operation), BoxRel
	// (one box/region relation test), IDProbe (one record-id membership
	// probe), MapOp (one hash-map operation) and GenOp (one
	// rule-generation step): the knobs the online recalibrator tunes.
	UnitCosts = cost.Units
	// UnitDrift is one unit's recalibration state: the Static
	// reference, the Live value, and the evidence behind the gap — Bias,
	// the EWMA of log(measured/predicted) attributed to the unit, and
	// Weight, the effective samples behind it.
	UnitDrift = advisor.UnitDrift
	// GuardrailReport describes the replay differential guarding a unit
	// swap: every logged all-plans evaluation is replayed under the
	// candidate units, and the swap is refused if any replayed choice's
	// measured cost exceeds the static-units choice's by more than the
	// tolerance.
	GuardrailReport = advisor.GuardrailReport
	// CalibrationReport is the online recalibrator's state: the static
	// reference units, the live units the optimizer prices with, the
	// candidate the evidence asks for, and the swap bookkeeping
	// (LastSwap is nil until the first swap).
	CalibrationReport = advisor.CalibrationReport
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

// AdvisorReport is the self-tuning optimizer's full state: calibration,
// workload summary, pending recommendations, and the installed
// secondary indexes.
type AdvisorReport struct {
	Calibration     CalibrationReport     `json:"calibration"`
	Workload        WorkloadStats         `json:"workload"`
	Recommendations []IndexRecommendation `json:"recommendations"`
	Secondaries     []SecondaryIndexInfo  `json:"secondaries"`
}

// Advisor returns the self-tuning optimizer's current state without
// changing anything: a read-only calibration snapshot, the workload
// summary, and what the advisor would build or drop right now.
func (e *Engine) Advisor() AdvisorReport {
	return AdvisorReport{
		Calibration:     e.eng.Advisor.Calibration(),
		Workload:        e.eng.Advisor.WorkloadStats(),
		Recommendations: e.eng.Recommendations(),
		Secondaries:     e.eng.Secondaries(),
	}
}

// Recalibrate runs one drift evaluation: when operator mispredictions
// have persisted past the configured streak, the advisor replays the
// logged plan choices under the candidate units and — only if the
// guardrail differential passes — swaps them in as the optimizer's live
// units. Serving layers call this periodically.
func (e *Engine) Recalibrate() CalibrationReport {
	return e.eng.Recalibrate()
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
