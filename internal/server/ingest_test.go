package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colarm"
)

func salaryRecord(t testing.TB, eng *colarm.Engine) map[string]string {
	t.Helper()
	rec := make(map[string]string)
	for _, a := range eng.Dataset().Attributes() {
		vals, err := eng.Dataset().Values(a)
		if err != nil {
			t.Fatal(err)
		}
		rec[a] = vals[0]
	}
	return rec
}

func decodeIngest(t testing.TB, w *httptest.ResponseRecorder) ingestResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestIngestEndpoint(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	h := s.Handler()
	eng, _, err := reg.Get("salary")
	if err != nil {
		t.Fatal(err)
	}

	w := postJSON(t, h, "/v1/ingest", ingestRequest{
		Dataset: "salary",
		Inserts: []map[string]string{salaryRecord(t, eng)},
		Deletes: []int{0},
		Rebuild: "never",
	})
	resp := decodeIngest(t, w)
	if resp.Inserted != 1 || resp.Deleted != 1 || resp.RebuildStarted {
		t.Fatalf("unexpected ingest response: %+v", resp)
	}
	if st := resp.Staleness; st.BufferedRows != 1 || st.Tombstones != 1 || st.Version != 1 {
		t.Fatalf("unexpected staleness: %+v", st)
	}

	// The staleness shows up in the dataset listing.
	req := httptest.NewRequest("GET", "/v1/datasets", nil)
	lw := httptest.NewRecorder()
	h.ServeHTTP(lw, req)
	var listing struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(lw.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Datasets) != 1 || listing.Datasets[0].BufferedRows != 1 || listing.Datasets[0].Tombstones != 1 {
		t.Fatalf("listing does not report staleness: %+v", listing.Datasets)
	}

	// Queries over the stale engine keep answering (exactly, per the
	// root-package differential test; here we just check they serve).
	mw := postJSON(t, h, "/v1/mine", mineRequest{queryBody: queryBody{Dataset: "salary", Query: colarm.Query{MinSupport: 0.3, MinConfidence: 0.8}}})
	if mw.Code != http.StatusOK {
		t.Fatalf("mine on stale engine: %d %s", mw.Code, mw.Body.String())
	}

	// Validation failures map to 400.
	bad := salaryRecord(t, eng)
	bad["Location"] = "Atlantis"
	if w := postJSON(t, h, "/v1/ingest", ingestRequest{Dataset: "salary", Inserts: []map[string]string{bad}}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown value: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/ingest", ingestRequest{Dataset: "salary", Deletes: []int{99999}}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad record id: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/ingest", ingestRequest{Dataset: "salary", Rebuild: "sometimes"}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad rebuild policy: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/ingest", ingestRequest{Dataset: "nope"}); w.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d %s", w.Code, w.Body.String())
	}
}

// TestIngestForcedRebuild checks the background rebuild path end to
// end: a forced rebuild reports rebuildStarted, swaps a fresh engine
// into the registry (generation bump), and the fresh engine has
// absorbed the delta.
func TestIngestForcedRebuild(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	h := s.Handler()
	eng, gen0, err := reg.Get("salary")
	if err != nil {
		t.Fatal(err)
	}
	base := eng.Dataset().NumRecords()

	w := postJSON(t, h, "/v1/ingest", ingestRequest{
		Dataset: "salary",
		Inserts: []map[string]string{salaryRecord(t, eng), salaryRecord(t, eng)},
		Deletes: []int{0},
		Rebuild: "force",
	})
	resp := decodeIngest(t, w)
	if !resp.RebuildStarted {
		t.Fatalf("forced rebuild did not start: %+v", resp)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		fresh, gen, err := reg.Get("salary")
		if err != nil {
			t.Fatal(err)
		}
		if gen == gen0+1 {
			if got, want := fresh.Dataset().NumRecords(), base+2-1; got != want {
				t.Fatalf("rebuilt dataset has %d records, want %d", got, want)
			}
			if st := fresh.Staleness(); st.BufferedRows != 0 || st.Tombstones != 0 {
				t.Fatalf("rebuilt engine still stale: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild never swapped the registry generation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWrongMethod405 pins the JSON 405 + Allow contract on every /v1
// route.
func TestWrongMethod405(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct{ method, path, allow string }{
		{"GET", "/v1/mine", "POST"},
		{"DELETE", "/v1/mine", "POST"},
		{"GET", "/v1/explain", "POST"},
		{"PUT", "/v1/ingest", "POST"},
		{"POST", "/v1/datasets", "GET"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, w.Code)
		}
		if got := w.Header().Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Code == "" {
			t.Fatalf("%s %s: body is not a JSON error: %q", c.method, c.path, w.Body.String())
		}
	}
}

// TestConcurrentIngestMineReload drives concurrent ingests, mining
// queries and registry reloads (forced rebuild swaps plus manual
// re-registrations) against one server; run under -race this is the
// subsystem's concurrency proof. Ingest conflicts (409, racing a
// rebuild) are expected and tolerated; every other failure is not.
func TestConcurrentIngestMineReload(t *testing.T) {
	s, reg := newTestServer(t, Config{CacheEntries: 64})
	h := s.Handler()
	eng, _, err := reg.Get("salary")
	if err != nil {
		t.Fatal(err)
	}
	rec := salaryRecord(t, eng)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 64)

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := postJSON(t, h, "/v1/mine", mineRequest{
					queryBody: queryBody{Dataset: "salary", Query: colarm.Query{MinSupport: 0.2 + 0.4*rng.Float64(), MinConfidence: 0.8}},
					NoCache:   rng.Intn(2) == 0,
				})
				if w.Code != http.StatusOK {
					fail <- fmt.Sprintf("mine: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}(int64(i))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			policy := "never"
			if rng.Intn(4) == 0 {
				policy = "force"
			}
			w := postJSON(t, h, "/v1/ingest", ingestRequest{
				Dataset: "salary",
				Inserts: []map[string]string{rec},
				Rebuild: policy,
			})
			if w.Code != http.StatusOK && w.Code != http.StatusConflict {
				fail <- fmt.Sprintf("ingest: %d %s", w.Code, w.Body.String())
				return
			}
		}
	}()

	// Manual registry reloads racing everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			reg.Register(salaryEngine(t, nil))
		}
	}()

	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

// rebuildRunning reports whether any goroutine is inside a background
// rebuild.
func rebuildRunning() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Server).rebuild")
}

// TestCloseWaitsForRebuild: Close returns only after a forced rebuild in
// flight has finished (so it cannot re-attach standing queries to a
// closed manager), and it ends every open event stream, which is what
// lets an HTTP shutdown finish without waiting out its deadline.
func TestCloseWaitsForRebuild(t *testing.T) {
	// Mushroom at primary 0.1 rebuilds in about 200 ms, so Close is
	// called while the rebuild is still mining.
	ds, err := colarm.GenerateMushroom(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(eng)
	s := New(reg, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	h := s.Handler()

	sub := createSub(t, h, map[string]any{"dataset": "mushroom", "minSupport": 0.9, "minConfidence": 0.9})
	frames := dialFrames(t, ts.URL, sub.ID)
	defer frames.close()
	if f := frames.next(t); !bytes.Contains(f, []byte("event: snapshot")) {
		t.Fatalf("first frame is not the snapshot: %s", f)
	}

	w := postJSON(t, h, "/v1/ingest", map[string]any{"dataset": "mushroom", "rebuild": "force"})
	if resp := decodeIngest(t, w); !resp.RebuildStarted {
		t.Fatal("forced rebuild not started")
	}
	for deadline := time.Now().Add(5 * time.Second); !rebuildRunning(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fixture drifted: no rebuild seen running before Close")
		}
	}
	s.Close()
	if rebuildRunning() {
		t.Fatal("Close returned with a rebuild still running")
	}

	ended := make(chan bool, 1)
	go func() {
		for frames.next(t) != nil {
		}
		ended <- true
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the event stream stayed open after Close")
	}
}
