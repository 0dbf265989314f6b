package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"colarm"
)

// TestOneGeneration: every reply that says where an answer sits reports
// the engine's own generation — /v1/mine, /v1/explain, /v1/ingest, the
// listing, the dataset detail, the subscription resource and the
// subscription's SSE and long-poll events — and they all agree, before
// and after a forced rebuild. An engine Open built starts at 0; one
// loaded from golden_v6.snapshot continues the 2 its snapshot recorded.
func TestOneGeneration(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *colarm.Engine
		want uint64
	}{
		{"opened", func(t *testing.T) *colarm.Engine { return salaryEngine(t, nil) }, 0},
		{"loaded", func(t *testing.T) *colarm.Engine {
			eng, err := colarm.LoadEngineFile(filepath.Join("..", "mip", "testdata", "golden_v6.snapshot"), colarm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			if err := reg.Register(tc.open(t)); err != nil {
				t.Fatal(err)
			}
			s := New(reg, Config{})
			t.Cleanup(s.Close)
			h := s.Handler()
			ts := httptest.NewServer(h)
			defer ts.Close()

			sub := createSub(t, h, seattleSub)
			sse := dialSSE(t, ts.URL, sub.ID, 0)
			defer sse.close()
			first, ok := sse.next(t)
			if !ok || first.Type != "snapshot" {
				t.Fatalf("first SSE event %+v (ok=%v), want the snapshot", first, ok)
			}
			polled := poll(t, h, sub.ID, 0, "1s")
			if len(polled) == 0 {
				t.Fatal("long-poll returned no events")
			}
			got := map[string]uint64{
				"subscribe":          sub.Generation,
				"SSE snapshot":       first.Generation,
				"long-poll snapshot": polled[0].Generation,
			}
			generations(t, h, sub.ID, got)
			if want := tc.want; !allEqual(got, want) {
				t.Fatalf("generations %v, want every one %d", got, want)
			}

			// A forced rebuild swaps in the next generation; the SSE
			// stream re-anchors on it with an epoch event.
			ingestRows(t, h, nil, "force")
			s.rebuilds.Wait()
			quiesceServer(t, s)
			want := tc.want + 1
			var epoch uint64
			for epoch != want {
				ev, ok := sse.next(t)
				if !ok {
					t.Fatalf("SSE stream ended before an event of generation %d", want)
				}
				epoch = ev.Generation
			}
			polled = poll(t, h, sub.ID, 0, "1s")
			got = map[string]uint64{
				"SSE after rebuild":       epoch,
				"long-poll after rebuild": polled[len(polled)-1].Generation,
			}
			generations(t, h, sub.ID, got)
			if !allEqual(got, want) {
				t.Fatalf("after the rebuild: generations %v, want every one %d", got, want)
			}
		})
	}
}

// generations records the generation each JSON route reports into got:
// a mine, an explain, an ingest that changes nothing, the listing, the
// dataset detail and the subscription resource.
func generations(t *testing.T, h http.Handler, subID string, got map[string]uint64) {
	t.Helper()
	read := func(route string, w *httptest.ResponseRecorder, v any) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", route, w.Code, w.Body.String())
		}
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v", route, err)
		}
	}
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	got["mine"] = decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery)).Generation

	var explain explainResponse
	read("explain", postJSON(t, h, "/v1/explain", seattleQuery), &explain)
	got["explain"] = explain.Generation

	var ingest ingestResponse
	read("ingest", postJSON(t, h, "/v1/ingest", ingestRequest{Dataset: "salary", Rebuild: "never"}), &ingest)
	got["ingest"] = ingest.Generation

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	read("datasets", get("/v1/datasets"), &list)
	if len(list.Datasets) != 1 {
		t.Fatalf("listing holds %d datasets, want 1", len(list.Datasets))
	}
	got["datasets"] = list.Datasets[0].Generation

	var detail datasetDetail
	read("dataset detail", get("/v1/datasets/salary"), &detail)
	got["dataset detail"] = detail.Generation

	var sub subscriptionJSON
	read("subscription", get("/v1/subscriptions/"+subID), &sub)
	got["subscription"] = sub.Generation
}

func allEqual(got map[string]uint64, want uint64) bool {
	for _, g := range got {
		if g != want {
			return false
		}
	}
	return true
}
