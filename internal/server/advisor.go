package server

import (
	"context"
	"net/http"
	"time"

	"colarm"
)

// advisorResponse is GET /v1/datasets/{name}/advisor: the index
// advisor's full state for one dataset — where it sits, then the
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

// advisorApplyResponse is POST /v1/datasets/{name}/advisor/apply: the
// index recommendations that were applied and the index set afterwards.
type advisorApplyResponse struct {
	Dataset     string                       `json:"dataset"`
	Generation  uint64                       `json:"generation"`
	Version     uint64                       `json:"version"`
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
	// Build/drop the secondary indexes the workload pays for,
	// synchronously. Index builds mine the merged surface under the
	// request's deadline; the engine keeps serving queries throughout —
	// each install is an atomic swap.
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
		Applied:     orEmpty(applied),
		Secondaries: orEmpty(eng.SecondaryIndexes()),
	})
}

// advisorLoop is the index advisor's policy loop: every AdvisorInterval
// each registered engine's current recommendations are applied.
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
		if applied, err := eng.ApplyRecommendations(context.Background()); err == nil && len(applied) > 0 {
			s.advisorApplies.Inc()
		}
	}
}

// advisorSummaryJSON is the dataset-detail view's advisor summary: the
// unit costs the optimizer prices with and how many secondary indexes
// stand beside the base one.
type advisorSummaryJSON struct {
	Units            colarm.UnitCosts `json:"units"`
	SecondaryIndexes int              `json:"secondaryIndexes"`
}

func toAdvisorSummaryJSON(eng *colarm.Engine) advisorSummaryJSON {
	rep := eng.Advisor()
	return advisorSummaryJSON{Units: rep.Units, SecondaryIndexes: len(rep.Secondaries)}
}
