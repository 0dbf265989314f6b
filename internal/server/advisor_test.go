package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestAdvisorEndpoint exercises GET /v1/datasets/{name}/advisor: the
// full advisor report with the unit costs, workload summary and
// (initially empty) recommendation and secondary-index lists.
func TestAdvisorEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/datasets/salary/advisor", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp advisorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dataset != "salary" {
		t.Fatalf("dataset = %q, want salary", resp.Dataset)
	}
	if resp.Units.WordOp <= 0 {
		t.Fatalf("units.wordOp = %v, want > 0", resp.Units.WordOp)
	}
	if len(resp.Secondaries) != 0 {
		t.Fatalf("fresh engine reports secondaries: %+v", resp.Secondaries)
	}
	// The lists serialize as [] rather than null so clients can range
	// without a nil check.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"recommendations", "secondaries"} {
		if string(raw[field]) == "null" {
			t.Errorf("%s serialized as null, want []", field)
		}
	}
}

// TestAdvisorApplyEndpoint exercises POST .../advisor/apply: one
// synchronous apply step. On an engine with no workload worth an index
// it is a no-op that still reports the (empty) index set.
func TestAdvisorApplyEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	// Build a little workload first so the endpoint has observations.
	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/v1/mine", seattleQuery); w.Code != http.StatusOK {
			t.Fatalf("mine: %d %s", w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest("POST", "/v1/datasets/salary/advisor/apply", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp advisorApplyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dataset != "salary" {
		t.Fatalf("dataset = %q, want salary", resp.Dataset)
	}
	// The tiny salary dataset gives the advisor nothing worth building;
	// the step must be an honest no-op, not an error.
	if len(resp.Applied) != 0 {
		t.Fatalf("applied on a no-benefit workload: %+v", resp.Applied)
	}
	if len(resp.Secondaries) != 0 {
		t.Fatalf("no-op apply reports secondaries: %+v", resp.Secondaries)
	}
}

// TestDatasetDetailAdvisorSummary checks the dataset detail view carries
// the advisor summary: unit costs and the secondary index count.
func TestDatasetDetailAdvisorSummary(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/datasets/salary", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var detail struct {
		Advisor advisorSummaryJSON `json:"advisor"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Advisor.Units.WordOp <= 0 {
		t.Fatalf("detail advisor summary missing unit costs: %+v", detail.Advisor)
	}
	if detail.Advisor.SecondaryIndexes != 0 {
		t.Fatalf("fresh engine reports secondary indexes: %+v", detail.Advisor)
	}
}

// TestAdvisorPolicyLoop proves the background loop ticks engines through
// ApplyRecommendations and that Close stops it cleanly.
func TestAdvisorPolicyLoop(t *testing.T) {
	s, _ := newTestServer(t, Config{AdvisorInterval: 2 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for s.advisorTicks.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("policy loop never ticked (ticks=%d)", s.advisorTicks.Value())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	ticks := s.advisorTicks.Value()
	time.Sleep(10 * time.Millisecond)
	if got := s.advisorTicks.Value(); got != ticks {
		t.Fatalf("policy loop still ticking after Close: %d -> %d", ticks, got)
	}
	// Close is idempotent with the loop already stopped.
	s.Close()
}
