package advisor

import (
	"fmt"
	"sort"
	"time"

	"colarm/internal/plans"
)

// The advisor's policy, fixed: no command, example or benchmark ever set
// these to anything else.
const (
	// logWindow bounds the query-log ring feeding index advice.
	logWindow = 1024
	// minBenefitFactor scales the measured build cost the accumulated
	// workload benefit must clear before a secondary index build is
	// recommended.
	minBenefitFactor = 1
	// dropWinFraction is the fraction of logged queries a secondary
	// index must win to stay; below it a drop is recommended.
	dropWinFraction = 0.02
	// minDropWindow is the minimum number of logged queries before a
	// drop recommendation is considered.
	minDropWindow = 32
)

// QueryObservation is one mined query in the workload log.
type QueryObservation struct {
	// SubsetSize is the focal subset's record count; LocalCount the
	// localized support-count threshold (minsupport over the subset) —
	// the number a MIP-index's primary count must not exceed for the
	// query to be answerable from prestored CFIs.
	SubsetSize int
	LocalCount int
	// Plan is the executed plan; IndexUsed the physical index that
	// answered (0 = base, i > 0 = secondary i, counting from 1).
	Plan      plans.Kind
	IndexUsed int
	// ForcedARM reports the applicability gate overrode a MIP argmin —
	// the queries a lower-primary secondary index would reclaim.
	ForcedARM bool
	Measured  time.Duration
	// BestMIPCost is the estimated cost of the cheapest MIP-backed plan
	// had it been applicable.
	BestMIPCost float64
}

// SecondaryState describes one installed secondary index for the
// recommendation pass.
type SecondaryState struct {
	ID           int // 1-based index id as logged in IndexUsed
	Primary      float64
	PrimaryCount int
	Stale        bool
}

// Recommendation is one index action the workload pays for: "build" a
// secondary MIP-index at a lower primary support, or "drop" one that
// stopped winning queries. Exported by the facade as
// colarm.IndexRecommendation and marshalled as it is.
type Recommendation struct {
	// Action is "build" or "drop".
	Action string `json:"action"`
	// PrimarySupport is the primary-support fraction of the index to
	// build or drop; PrimaryCount its support-count form over the
	// current records.
	PrimarySupport float64 `json:"primarySupport"`
	PrimaryCount   int     `json:"primaryCount"`
	// BenefitNanos is the accumulated measured-over-estimated cost gap
	// the action recovers (build) or the residual value lost (drop);
	// BuildCostNanos the build price it was weighed against.
	BenefitNanos   int64 `json:"benefitNanos"`
	BuildCostNanos int64 `json:"buildCostNanos"`
	// Queries counts the logged queries supporting the recommendation.
	Queries int    `json:"queries"`
	Reason  string `json:"reason"`
}

// WorkloadStats summarizes the logged window.
type WorkloadStats struct {
	// Window counts the logged queries; ForcedARM those the
	// applicability gate forced to the ARM fallback.
	Window    int `json:"window"`
	ForcedARM int `json:"forcedARM"`
	// SecondaryWins counts logged queries answered by any secondary
	// index.
	SecondaryWins int `json:"secondaryWins"`
}

// recommendations mines the log: build a lower-primary secondary when
// the forced-ARM queries' accumulated cost gap pays for the build, drop
// a secondary that stopped winning queries.
func recommendations(log []QueryObservation, records int, secondaries []SecondaryState, buildCost time.Duration) []Recommendation {
	var out []Recommendation

	// Build: collect the forced-ARM evidence not already covered by an
	// installed (fresh) secondary.
	covered := func(localCount int) bool {
		for _, s := range secondaries {
			if !s.Stale && s.PrimaryCount <= localCount {
				return true
			}
		}
		return false
	}
	var counts []int
	benefit := 0.0
	supporting := 0
	for _, q := range log {
		if !q.ForcedARM || covered(q.LocalCount) {
			continue
		}
		supporting++
		counts = append(counts, q.LocalCount)
		if gap := float64(q.Measured.Nanoseconds()) - q.BestMIPCost; gap > 0 {
			benefit += gap
		}
	}
	if supporting > 0 && records > 0 {
		// Target the 10th percentile of the uncovered localized counts:
		// an index mined at that primary count reclaims ~90% of the
		// forced-ARM workload while staying as small as possible.
		sort.Ints(counts)
		target := counts[len(counts)/10]
		if target < 1 {
			target = 1
		}
		need := minBenefitFactor * float64(buildCost.Nanoseconds())
		if benefit >= need && need > 0 {
			out = append(out, Recommendation{
				Action:         "build",
				PrimarySupport: float64(target) / float64(records),
				PrimaryCount:   target,
				BenefitNanos:   int64(benefit),
				BuildCostNanos: buildCost.Nanoseconds(),
				Queries:        supporting,
				Reason: fmt.Sprintf("%d forced-ARM queries accumulated %.1fms over the best inapplicable MIP plan (build costs ~%.1fms)",
					supporting, benefit/1e6, float64(buildCost.Nanoseconds())/1e6),
			})
		}
	}

	// Drop: a secondary that wins almost nothing over a full window is
	// dead weight (memory plus a per-query estimation pass).
	if len(log) >= minDropWindow {
		wins := make(map[int]int)
		for _, q := range log {
			wins[q.IndexUsed]++
		}
		for _, s := range secondaries {
			frac := float64(wins[s.ID]) / float64(len(log))
			if frac < dropWinFraction {
				out = append(out, Recommendation{
					Action:         "drop",
					PrimarySupport: s.Primary,
					PrimaryCount:   s.PrimaryCount,
					Queries:        wins[s.ID],
					Reason: fmt.Sprintf("secondary index at primary %.4f won %d of the last %d queries (%.1f%%, below %.1f%%)",
						s.Primary, wins[s.ID], len(log), 100*frac, 100*dropWinFraction),
				})
			}
		}
	}
	return out
}
