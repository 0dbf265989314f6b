package server

import (
	"context"
	"net/http"
	"time"

	"colarm"
)

// advisorResponse is GET /v1/datasets/{name}/advisor: the self-tuning
// optimizer's full state for one dataset — where it sits, then the
// facade's report as it marshals.
type advisorResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
	colarm.AdvisorReport
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	s.requests["advisor"].Inc()
	name := r.PathValue("name")
	eng, gen, err := s.reg.Get(name)
	if err != nil {
		s.fail(w, "advisor", notFoundError{err})
		return
	}
	rep := eng.Advisor()
	rep.Recommendations = orEmpty(rep.Recommendations)
	rep.Secondaries = orEmpty(rep.Secondaries)
	s.writeJSON(w, http.StatusOK, advisorResponse{Dataset: name, Generation: gen, Version: eng.Version(), AdvisorReport: rep})
}

// advisorApplyResponse is POST /v1/datasets/{name}/advisor/apply: one
// explicit self-tuning step — a recalibration evaluation plus the index
// recommendations that were applied.
type advisorApplyResponse struct {
	Dataset     string                       `json:"dataset"`
	Generation  uint64                       `json:"generation"`
	Version     uint64                       `json:"version"`
	Calibration colarm.CalibrationReport     `json:"calibration"`
	Applied     []colarm.IndexRecommendation `json:"applied"`
	Secondaries []colarm.SecondaryIndexInfo  `json:"secondaries"`
}

func (s *Server) handleAdvisorApply(w http.ResponseWriter, r *http.Request) {
	s.requests["advisor"].Inc()
	name := r.PathValue("name")
	eng, gen, err := s.reg.Get(name)
	if err != nil {
		s.fail(w, "advisor", notFoundError{err})
		return
	}
	// One explicit self-tuning step, synchronously: recalibrate (the
	// guardrail replay still gates any unit swap), then build/drop the
	// secondary indexes the workload pays for. Index builds mine the
	// merged surface under the request's deadline; the engine keeps
	// serving queries throughout — each install is an atomic swap.
	cal := eng.Recalibrate()
	applied, err := eng.ApplyRecommendations(r.Context())
	if err != nil {
		s.fail(w, "advisor", err)
		return
	}
	if len(applied) > 0 {
		s.advisorApplies.Inc()
	}
	s.writeJSON(w, http.StatusOK, advisorApplyResponse{
		Dataset:     name,
		Generation:  gen,
		Version:     eng.Version(),
		Calibration: cal,
		Applied:     orEmpty(applied),
		Secondaries: orEmpty(eng.SecondaryIndexes()),
	})
}

// advisorLoop is the self-tuning policy loop: every AdvisorInterval each
// registered engine gets one Recalibrate evaluation, and — with
// AdvisorAutoApply — the index advisor's recommendations are applied.
func (s *Server) advisorLoop() {
	defer close(s.advisorDone)
	t := time.NewTicker(s.cfg.AdvisorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.advisorStop:
			return
		case <-t.C:
			s.advisorTick()
		}
	}
}

func (s *Server) advisorTick() {
	s.advisorTicks.Inc()
	for _, info := range s.reg.List() {
		eng, _, err := s.reg.Get(info.Name)
		if err != nil {
			continue
		}
		eng.Recalibrate()
		if s.cfg.AdvisorAutoApply {
			if applied, err := eng.ApplyRecommendations(context.Background()); err == nil && len(applied) > 0 {
				s.advisorApplies.Inc()
			}
		}
	}
}

// advisorSummaryJSON is the dataset-detail view's self-tuning summary:
// the units the optimizer is pricing with right now and how far the
// evidence says they have drifted.
type advisorSummaryJSON struct {
	LiveUnits         colarm.UnitCosts `json:"liveUnits"`
	DriftScore        float64          `json:"driftScore"`
	Recalibrations    uint64           `json:"recalibrations"`
	LastRecalibration *time.Time       `json:"lastRecalibration,omitempty"`
	SecondaryIndexes  int              `json:"secondaryIndexes"`
}

func toAdvisorSummaryJSON(eng *colarm.Engine) advisorSummaryJSON {
	rep := eng.Advisor()
	return advisorSummaryJSON{
		LiveUnits:         rep.Calibration.LiveUnits,
		DriftScore:        rep.Calibration.DriftScore,
		Recalibrations:    rep.Calibration.Swaps,
		LastRecalibration: rep.Calibration.LastSwap,
		SecondaryIndexes:  len(rep.Secondaries),
	}
}
