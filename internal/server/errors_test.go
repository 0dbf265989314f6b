package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"colarm"
	"colarm/internal/pool"
	"colarm/internal/standing"
)

// TestErrorEnvelopeByRoute is the route x error-class table: every /v1
// error response must carry the structured envelope with the expected
// machine-readable code — and nothing else: the deprecated flat
// legacyError field is gone.
func TestErrorEnvelopeByRoute(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxSubscriptions: 2})
	h := s.Handler()

	goodQuery := func(extra map[string]any) map[string]any {
		body := map[string]any{
			"dataset": "salary", "minSupport": 0.3, "minConfidence": 0.5,
			"range": map[string][]string{"Location": {"Seattle"}},
		}
		for k, v := range extra {
			body[k] = v
		}
		return body
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   map[string]any
		status int
		code   string
	}{
		{"mine unknown dataset", "POST", "/v1/mine",
			goodQuery(map[string]any{"dataset": "nope"}),
			http.StatusNotFound, CodeNotFound},
		{"mine unknown attribute", "POST", "/v1/mine",
			goodQuery(map[string]any{"range": map[string][]string{"Planet": {"Mars"}}}),
			http.StatusBadRequest, CodeUnknownAttribute},
		{"mine unknown value", "POST", "/v1/mine",
			goodQuery(map[string]any{"range": map[string][]string{"Location": {"Atlantis"}}}),
			http.StatusBadRequest, CodeUnknownValue},
		{"mine bad threshold", "POST", "/v1/mine",
			goodQuery(map[string]any{"minSupport": 7.0}),
			http.StatusBadRequest, CodeBadThreshold},
		{"mine unknown plan", "POST", "/v1/mine",
			goodQuery(map[string]any{"plan": "X-Y-Z"}),
			http.StatusBadRequest, CodeUnknownPlan},
		{"mine malformed body", "POST", "/v1/mine",
			map[string]any{"bogus": 1},
			http.StatusBadRequest, CodeBadRequest},
		{"explain unknown value", "POST", "/v1/explain",
			goodQuery(map[string]any{"range": map[string][]string{"Gender": {"X"}}}),
			http.StatusBadRequest, CodeUnknownValue},
		{"ingest unknown dataset", "POST", "/v1/ingest",
			map[string]any{"dataset": "nope"},
			http.StatusNotFound, CodeNotFound},
		{"ingest bad record id", "POST", "/v1/ingest",
			map[string]any{"dataset": "salary", "deletes": []int{99999}},
			http.StatusBadRequest, CodeBadRecordID},
		{"ingest unknown value", "POST", "/v1/ingest",
			map[string]any{"dataset": "salary", "inserts": []map[string]string{{
				"Company": "IBM", "Title": "QA Lead", "Location": "Atlantis",
				"Gender": "M", "Age": "30-40", "Salary": "60K-90K"}}},
			http.StatusBadRequest, CodeUnknownValue},
		{"subscribe unknown dataset", "POST", "/v1/subscriptions",
			goodQuery(map[string]any{"dataset": "nope"}),
			http.StatusNotFound, CodeNotFound},
		{"subscribe bad track", "POST", "/v1/subscriptions",
			goodQuery(map[string]any{"track": map[string]any{"measure": "zeal", "threshold": 1}}),
			http.StatusBadRequest, CodeBadTrack},
		{"subscribe bad threshold", "POST", "/v1/subscriptions",
			goodQuery(map[string]any{"minSupport": 0.0}),
			http.StatusBadRequest, CodeBadThreshold},
		{"subscription not found", "GET", "/v1/subscriptions/sub-404", nil,
			http.StatusNotFound, CodeNotFound},
		{"subscription delete not found", "DELETE", "/v1/subscriptions/sub-404", nil,
			http.StatusNotFound, CodeNotFound},
		{"events not found", "GET", "/v1/subscriptions/sub-404/events?wait=1ms", nil,
			http.StatusNotFound, CodeNotFound},
		{"mine wrong method", "GET", "/v1/mine", nil,
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"datasets wrong method", "POST", "/v1/datasets", nil,
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"subscription wrong method", "PUT", "/v1/subscriptions/sub-1", nil,
			http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"dataset detail not found", "GET", "/v1/datasets/nope", nil,
			http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		var w *httptest.ResponseRecorder
		if tc.body != nil {
			w = postJSON(t, h, tc.path, tc.body)
		} else {
			req := httptest.NewRequest(tc.method, tc.path, nil)
			w = httptest.NewRecorder()
			h.ServeHTTP(w, req)
		}
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.status, w.Body.String())
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: body is not the error envelope: %s", tc.name, w.Body.String())
			continue
		}
		if er.Error.Code != tc.code {
			t.Errorf("%s: error.code %q, want %q", tc.name, er.Error.Code, tc.code)
		}
		if er.Error.Message == "" {
			t.Errorf("%s: envelope missing message: %s", tc.name, w.Body.String())
		}
		// The migration-window legacyError field must be gone from the
		// wire format entirely.
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err == nil {
			if _, ok := raw["legacyError"]; ok {
				t.Errorf("%s: envelope still carries legacyError: %s", tc.name, w.Body.String())
			}
		}
	}

	// A body must be one JSON value and fit its route's limit: anything
	// after the value is 400 bad_request — and nothing of the first value
	// is acted on — and an oversize body is 413 payload_too_large, not a
	// decode error about its truncated head.
	rawCases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"mine second value", "/v1/mine",
			`{"dataset":"salary","minSupport":0.5,"minConfidence":0.9} {"bogus":1} trailing`,
			http.StatusBadRequest, CodeBadRequest},
		{"subscribe trailing text", "/v1/subscriptions",
			`{"dataset":"salary","minSupport":0.5,"minConfidence":0.9}xyz`,
			http.StatusBadRequest, CodeBadRequest},
		{"ingest trailing brackets", "/v1/ingest",
			`{"dataset":"salary","deletes":[1],"rebuild":"never"} ]]]`,
			http.StatusBadRequest, CodeBadRequest},
		{"mine oversize", "/v1/mine",
			`{"dataset":"salary","minSupport":0.5,"minConfidence":0.9,"ql":"` + strings.Repeat(" ", maxQueryBody) + `"}`,
			http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
		{"ingest oversize", "/v1/ingest",
			`{"dataset":"salary","deletes":[1` + strings.Repeat(" ", maxIngestBody) + `]}`,
			http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
	}
	for _, tc := range rawCases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != tc.status || er.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (body %s)", tc.name, w.Code, er.Error.Code, tc.status, tc.code, w.Body.String())
		}
	}
	if eng, _ := s.reg.Get("salary"); eng.Version() != 0 || len(s.standing.List()) != 0 {
		t.Errorf("a refused body was acted on: version %d, %d subscriptions", eng.Version(), len(s.standing.List()))
	}
	// Surrounding white space is not trailing data, and raw COLARM-QL
	// bodies are not JSON at all.
	for _, body := range []string{
		" \n{\"dataset\":\"salary\",\"minSupport\":0.5,\"minConfidence\":0.9}\n\t ",
		"REPORT LOCALIZED ASSOCIATION RULES FROM salary HAVING minsupport = 50% AND minconfidence = 90%;\n",
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/mine", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Errorf("body %q: status %d (%s)", body, w.Code, w.Body.String())
		}
	}

	// Subscription limit: the cap is 2; the third create must carry
	// subscription_limit.
	for i := 0; i < 2; i++ {
		q := goodQuery(nil)
		q["minSupport"] = 0.3 + float64(i)/10 // distinct canonical forms
		w := postJSON(t, h, "/v1/subscriptions", q)
		if w.Code != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := postJSON(t, h, "/v1/subscriptions", goodQuery(map[string]any{"minSupport": 0.55}))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: status %d, body %s", w.Code, w.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Code != CodeSubscriptionLimit {
		t.Fatalf("over-limit create: code %q, want %q", er.Error.Code, CodeSubscriptionLimit)
	}
}

// TestClassify pins the mapping for error classes that are awkward to
// trigger over HTTP deterministically.
func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{conflictError{err: fmt.Errorf("x"), dataset: "d"}, http.StatusConflict, CodeRebuildInProgress},
		{errOverloaded, http.StatusTooManyRequests, CodeOverloaded},
		{standing.ErrLimit, http.StatusTooManyRequests, CodeSubscriptionLimit},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{context.Canceled, 499, CodeClientClosedRequest},
		{fmt.Errorf("wrapped: %w", colarm.ErrBadRecordID), http.StatusBadRequest, CodeBadRecordID},
		{badRequestError{errors.New("x")}, http.StatusBadRequest, CodeBadRequest},
		{tooLargeError(1 << 20), http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
		{badRequestError{fmt.Errorf("decoding JSON body: %w", colarm.ErrUnknownPlan)}, http.StatusBadRequest, CodeUnknownPlan},
		{fmt.Errorf("%w %q", standing.ErrNoDataset, "d"), http.StatusNotFound, CodeNotFound},
		{errors.New("boom"), http.StatusInternalServerError, CodeInternal},
		{fmt.Errorf("mining: %w", pool.Catch(func() { panic("worker") })), http.StatusInternalServerError, CodeInternal},
	}
	for _, tc := range cases {
		status, code := classify(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("classify(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
		}
	}

	// A 409 envelope carries the dataset in details.
	s, _ := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.fail(w, "ingest", conflictError{err: fmt.Errorf("dataset %q is rebuilding", "salary"), dataset: "salary"})
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Details["dataset"] != "salary" {
		t.Fatalf("conflict details = %v, want dataset=salary", er.Error.Details)
	}
}
