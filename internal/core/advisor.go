package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"colarm/internal/advisor"
	"colarm/internal/cost"
	"colarm/internal/mip"
	"colarm/internal/plans"
)

// secondaryIndex is one extra physical MIP-index the engine holds
// beside the base index: same merged records, mined at a lower primary
// support, so it answers queries whose localized thresholds the base
// index's applicability gate forces to ARM. It is a frozen index's
// surface plus the model that prices it, run by the engine's one
// executor; it participates in the optimizer's argmin only while fresh —
// the request's base surface still carries exactly the delta version the
// secondary was mined over (Surface.Version) — because any later ingest
// would make its prestored CFIs silently incomplete.
type secondaryIndex struct {
	Surface       *plans.Surface
	Model         *cost.Model // Model.Idx is the secondary's index
	Primary       float64
	BuildDuration time.Duration
}

// SecondaryInfo describes one installed secondary index. The facade
// exports it as colarm.SecondaryIndexInfo and the serving layer
// marshals it as it is.
type SecondaryInfo struct {
	PrimarySupport float64 `json:"primarySupport"`
	PrimaryCount   int     `json:"primaryCount"`
	CFIs           int     `json:"cfis"`
	// BuiltVersion is the delta version the index was mined over.
	BuiltVersion uint64 `json:"-"`
	// Fresh reports the index covers exactly the current merged
	// records; only fresh secondaries join the optimizer's argmin.
	Fresh         bool          `json:"fresh"`
	BuildDuration time.Duration `json:"buildDurationNanos"`
}

// planChoice is one resolved optimizer decision across every physical
// index: the plan, the index that executes it (nil sec = base), and the
// evidence the advisor logs about it.
type planChoice struct {
	kind plans.Kind
	ests []cost.Estimate // the base index's six estimates
	// est is the executing (plan, index) pair's own estimate.
	est cost.Estimate
	// sec is the secondary index that won the argmin, nil for the base
	// index; secID its 1-based position (0 = base).
	sec   *secondaryIndex
	secID int

	subset, localCount int
	// forcedARM reports the applicability gate overrode a MIP argmin
	// and no secondary index reclaimed the query.
	forcedARM bool
	// bestMIP is the cheapest MIP-backed estimate on any index, had the
	// gate admitted it.
	bestMIP float64
}

// choose runs the cost-based optimizer across every physical index,
// against the surface and focal subset the request resolved: the base
// argmin with the paper's applicability override, then each fresh
// secondary index's argmin, keeping whichever (plan, index) pair
// estimates cheapest.
//
// The base argmin is honored only when the prestored CFIs can answer the
// query completely (Focal.Applicable). When the localized threshold
// falls below the surface's primary-support count, every MIP-backed plan
// would silently drop rules that are frequent only inside the focal
// subset, so the choice is overridden to ARM — completeness outranks the
// cost estimate — unless a fresh secondary index at a lower primary
// support reclaims the query. A secondary competes only when its own —
// lower — primary count clears the query's localized threshold, so every
// pair the argmin may pick returns the complete localized answer.
func (e *Engine) choose(q *plans.Query, f *plans.Focal) planChoice {
	kind, ests := e.Model.Choose(q)
	ch := planChoice{kind: kind, ests: ests, subset: f.Size, localCount: f.MinCount}
	for _, est := range ests {
		if est.Plan != plans.ARM && (ch.bestMIP == 0 || est.Total < ch.bestMIP) {
			ch.bestMIP = est.Total
		}
	}
	if ch.kind != plans.ARM && !f.Applicable() {
		ch.kind = plans.ARM
		ch.forcedARM = true
	}
	baseCost := math.Inf(1)
	for _, est := range ests {
		if est.Plan == ch.kind {
			baseCost, ch.est = est.Total, est
		}
	}

	// Secondary indexes: every fresh one whose primary count the
	// localized threshold reaches joins the argmin. A fresh secondary
	// covers exactly the same merged records as the base surface, so
	// the focal subset's size — and with it the localized threshold — is
	// identical and needs no recomputation.
	e.secMu.RLock()
	for i, s := range e.secondaries {
		if s.Surface.Version != f.Surface.Version || s.Surface.PrimaryCount > ch.localCount {
			continue
		}
		sk, sests := s.Model.Choose(q)
		if sk == plans.ARM {
			// ARM ignores the index layers; running it on a secondary
			// buys nothing over the base.
			continue
		}
		var sest cost.Estimate
		for _, est := range sests {
			if est.Plan == sk {
				sest = est
			}
		}
		scost := sest.Total
		if scost < baseCost {
			baseCost, ch.est = scost, sest
			ch.kind, ch.sec, ch.secID = sk, s, i+1
			ch.forcedARM = false
		}
		if ch.bestMIP == 0 || scost < ch.bestMIP {
			ch.bestMIP = scost
		}
	}
	e.secMu.RUnlock()
	return ch
}

// focal returns the focal subset the choice executes over: the request's
// own when the base index won, the same selection over the secondary's
// surface otherwise (a secondary is mined over the compacted merged
// dataset, so its record ids differ from the base surface's).
func (ch planChoice) focal(e *Engine, q *plans.Query, base *plans.Focal) *plans.Focal {
	if ch.sec != nil {
		return e.Executor.Focus(ch.sec.Surface, q)
	}
	return base
}

// noteAdvisor appends one successfully executed query to the advisor's
// workload log.
func (e *Engine) noteAdvisor(ch planChoice, res *plans.Result) {
	if ch.secID > 0 {
		e.secChosen.Inc()
	}
	e.Advisor.ObserveQuery(advisor.QueryObservation{
		SubsetSize:  ch.subset,
		LocalCount:  ch.localCount,
		Plan:        res.Stats.Plan,
		IndexUsed:   ch.secID,
		ForcedARM:   ch.forcedARM,
		Measured:    res.Stats.Duration,
		BestMIPCost: ch.bestMIP,
	})
}

// BuildSecondary mines a secondary MIP-index over the current merged
// records at the given primary support and installs it atomically. The
// engine serves queries throughout; the new index joins the argmin from
// the moment it is installed (replacing any existing secondary at the
// same primary count).
func (e *Engine) BuildSecondary(ctx context.Context, primary float64) (SecondaryInfo, error) {
	if err := ctx.Err(); err != nil {
		return SecondaryInfo{}, err
	}
	if primary <= 0 || primary > 1 {
		return SecondaryInfo{}, fmt.Errorf("core: secondary primary support %v outside (0,1]", primary)
	}
	version := e.Delta.Staleness().Version
	merged, err := e.Delta.MergedDataset()
	if err != nil {
		return SecondaryInfo{}, err
	}
	start := time.Now()
	idx, err := mip.Build(merged, mip.Options{
		PrimarySupport: primary,
		Fanout:         e.opts.Fanout,
		Workers:        e.opts.Workers,
	})
	if err != nil {
		return SecondaryInfo{}, err
	}
	return e.installSecondary(idx, primary, version, time.Since(start)), nil
}

// installSecondary wires the surface and model around a mined secondary
// index and swaps it into the engine's index set.
func (e *Engine) installSecondary(idx *mip.Index, primary float64, version uint64, dur time.Duration) SecondaryInfo {
	surf := plans.NewSurface(idx)
	surf.Version = version
	smo := cost.NewModel(idx, e.Model.U)
	smo.Mode = e.opts.CheckMode
	s := &secondaryIndex{
		Surface:       surf,
		Model:         smo,
		Primary:       primary,
		BuildDuration: dur,
	}
	e.secMu.Lock()
	replaced := false
	for i, old := range e.secondaries {
		// Same primary fraction = same logical index; a rebuild at the
		// same fraction over a moved surface replaces the stale copy even
		// when the absolute count shifted with the record count.
		if math.Abs(old.Primary-primary) <= 1e-9 || old.Surface.PrimaryCount == idx.PrimaryCount {
			e.secondaries[i] = s
			replaced = true
			break
		}
	}
	if !replaced {
		e.secondaries = append(e.secondaries, s)
	}
	e.secMu.Unlock()
	e.secBuilds.Inc()
	return secondaryInfo(s, version)
}

// DropSecondary removes the secondary index installed at the given
// primary support; it reports whether one matched.
func (e *Engine) DropSecondary(primary float64) bool {
	e.secMu.Lock()
	defer e.secMu.Unlock()
	for i, s := range e.secondaries {
		if math.Abs(s.Primary-primary) <= 1e-9 {
			e.secondaries = append(e.secondaries[:i], e.secondaries[i+1:]...)
			e.secDrops.Inc()
			return true
		}
	}
	return false
}

func secondaryInfo(s *secondaryIndex, version uint64) SecondaryInfo {
	return SecondaryInfo{
		PrimarySupport: s.Primary,
		PrimaryCount:   s.Surface.PrimaryCount,
		CFIs:           len(s.Surface.Boxes),
		BuiltVersion:   s.Surface.Version,
		Fresh:          s.Surface.Version == version,
		BuildDuration:  s.BuildDuration,
	}
}

// FreshSecondaryIndexes returns the primary fraction and index of each
// currently fresh secondary, for persistence. Stale secondaries are
// skipped: they can never be consulted again and are not worth the
// bytes.
func (e *Engine) FreshSecondaryIndexes() (primaries []float64, indexes []*mip.Index) {
	version := e.Delta.Staleness().Version
	e.secMu.RLock()
	defer e.secMu.RUnlock()
	for _, s := range e.secondaries {
		if s.Surface.Version == version {
			primaries = append(primaries, s.Primary)
			indexes = append(indexes, s.Model.Idx)
		}
	}
	return primaries, indexes
}

// RestoreSecondary reinstalls a deserialized secondary index as fresh
// against the engine's current delta version. Valid only when the
// engine's merged surface is identical to the one the secondary was
// mined over — the persistence path guarantees it by saving only fresh
// secondaries and restoring them after the delta replay.
func (e *Engine) RestoreSecondary(idx *mip.Index, primary float64) SecondaryInfo {
	return e.installSecondary(idx, primary, e.Delta.Staleness().Version, 0)
}

// Secondaries lists the installed secondary indexes.
func (e *Engine) Secondaries() []SecondaryInfo {
	version := e.Delta.Staleness().Version
	e.secMu.RLock()
	defer e.secMu.RUnlock()
	out := make([]SecondaryInfo, 0, len(e.secondaries))
	for _, s := range e.secondaries {
		out = append(out, secondaryInfo(s, version))
	}
	return out
}

// secondaryStates snapshots the installed secondaries in the advisor's
// vocabulary (1-based ids matching the workload log's IndexUsed).
func (e *Engine) secondaryStates() []advisor.SecondaryState {
	version := e.Delta.Staleness().Version
	e.secMu.RLock()
	defer e.secMu.RUnlock()
	out := make([]advisor.SecondaryState, 0, len(e.secondaries))
	for i, s := range e.secondaries {
		out = append(out, advisor.SecondaryState{
			ID:           i + 1,
			Primary:      s.Primary,
			PrimaryCount: s.Surface.PrimaryCount,
			Stale:        s.Surface.Version != version,
		})
	}
	return out
}

// mergedRecords approximates the current merged record count (live
// base records minus tombstones plus buffered inserts) for converting
// support counts to fractions.
func (e *Engine) mergedRecords() int {
	n := e.Index.Dataset.NumRecords()
	if e.Index.Live != nil {
		n = e.Index.Live.Count()
	}
	st := e.Delta.Staleness()
	n += st.BufferedRows - st.Tombstones
	if n < 1 {
		n = 1
	}
	return n
}

// Recommendations mines the advisor's workload log against the
// currently installed secondary indexes: which index to build, which
// to drop, and why.
func (e *Engine) Recommendations() []advisor.Recommendation {
	buildCost := e.Delta.Staleness().RebuildCost
	return e.Advisor.Recommendations(e.mergedRecords(), e.secondaryStates(), buildCost)
}

// ApplyRecommendations executes the advisor's current recommendations —
// building and dropping secondary indexes — and returns the ones
// applied. The engine serves queries throughout; each build or drop is
// an atomic swap of the index set.
func (e *Engine) ApplyRecommendations(ctx context.Context) ([]advisor.Recommendation, error) {
	var applied []advisor.Recommendation
	for _, rec := range e.Recommendations() {
		switch rec.Action {
		case "build":
			if _, err := e.BuildSecondary(ctx, rec.PrimarySupport); err != nil {
				return applied, err
			}
		case "drop":
			if !e.DropSecondary(rec.PrimarySupport) {
				continue
			}
		default:
			continue
		}
		e.recsApplied.Inc()
		applied = append(applied, rec)
	}
	return applied, nil
}
