package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"colarm"
	"colarm/internal/standing"
)

// seattleSub subscribes to the Seattle focal region; the canonical
// affecting insert for it is seattleRow.
var seattleSub = map[string]any{
	"dataset":       "salary",
	"range":         map[string][]string{"Location": {"Seattle"}},
	"minSupport":    0.3,
	"minConfidence": 0.5,
}

var seattleRow = map[string]string{
	"Company": "Microsoft", "Title": "Sw Engg", "Location": "Seattle",
	"Gender": "F", "Age": "30-40", "Salary": "90K-120K",
}

var bostonRow = map[string]string{
	"Company": "IBM", "Title": "QA Lead", "Location": "Boston",
	"Gender": "M", "Age": "30-40", "Salary": "60K-90K",
}

func createSub(t testing.TB, h http.Handler, body map[string]any) subscriptionJSON {
	t.Helper()
	w := postJSON(t, h, "/v1/subscriptions", body)
	if w.Code != http.StatusCreated {
		t.Fatalf("create subscription: status %d, body %s", w.Code, w.Body.String())
	}
	var sub subscriptionJSON
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/subscriptions/" + sub.ID; w.Header().Get("Location") != want {
		t.Fatalf("Location %q, want %q", w.Header().Get("Location"), want)
	}
	return sub
}

// poll long-polls the subscription's event stream once.
func poll(t testing.TB, h http.Handler, id string, after uint64, wait string) []standing.Event {
	t.Helper()
	req := httptest.NewRequest("GET",
		fmt.Sprintf("/v1/subscriptions/%s/events?after=%d&wait=%s", id, after, wait), nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("poll: status %d, body %s", w.Code, w.Body.String())
	}
	var resp struct {
		Events []standing.Event `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Events
}

func ingestRows(t testing.TB, h http.Handler, rows []map[string]string, rebuild string) *httptest.ResponseRecorder {
	t.Helper()
	body := map[string]any{"dataset": "salary", "inserts": rows}
	if rebuild != "" {
		body["rebuild"] = rebuild
	}
	w := postJSON(t, h, "/v1/ingest", body)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: status %d, body %s", w.Code, w.Body.String())
	}
	return w
}

func quiesceServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.standing.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriptionLifecycle walks the resource surface: create (201 +
// Location), read, list, long-poll the snapshot and a diff, delete
// (204), then 404s.
func TestSubscriptionLifecycle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	sub := createSub(t, h, seattleSub)
	if sub.Dataset != "salary" || sub.Query == "" || sub.Events == "" {
		t.Fatalf("incomplete subscription resource: %+v", sub)
	}

	// Same query again: second resource, shared tracker.
	sub2 := createSub(t, h, seattleSub)
	if sub2.ID == sub.ID {
		t.Fatal("subscriptions must get distinct ids")
	}

	// Read and list.
	req := httptest.NewRequest("GET", "/v1/subscriptions/"+sub.ID, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("get: status %d", w.Code)
	}
	req = httptest.NewRequest("GET", "/v1/subscriptions", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var list struct {
		Subscriptions []subscriptionJSON `json:"subscriptions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list.Subscriptions) != 2 {
		t.Fatalf("list: %s (err %v)", w.Body.String(), err)
	}

	// The first event is the snapshot at sequence 1.
	evs := poll(t, h, sub.ID, 0, "2s")
	if len(evs) != 1 || evs[0].Type != "snapshot" || evs[0].Seq != 1 {
		t.Fatalf("first poll: %+v", evs)
	}
	if len(evs[0].Rules) == 0 {
		t.Fatal("snapshot carries no rules")
	}

	// An affecting ingest produces a diff event with the version
	// interval it covers.
	ingestRows(t, h, []map[string]string{seattleRow}, "never")
	quiesceServer(t, s)
	evs = poll(t, h, sub.ID, 1, "2s")
	if len(evs) != 1 || evs[0].Type != "diff" {
		t.Fatalf("diff poll: %+v", evs)
	}
	if evs[0].FromVersion != 0 || evs[0].ToVersion != 1 {
		t.Fatalf("diff interval [%d,%d], want [0,1]", evs[0].FromVersion, evs[0].ToVersion)
	}
	if len(evs[0].Appeared)+len(evs[0].Disappeared)+len(evs[0].Updated) == 0 {
		t.Fatal("affecting ingest produced an empty diff")
	}

	// An unaffecting ingest produces nothing: the long-poll times out
	// with an empty batch.
	ingestRows(t, h, []map[string]string{bostonRow}, "never")
	quiesceServer(t, s)
	if evs := poll(t, h, sub.ID, 2, "50ms"); len(evs) != 0 {
		t.Fatalf("unaffecting ingest produced events: %+v", evs)
	}

	// Delete: 204, then 404 everywhere.
	req = httptest.NewRequest("DELETE", "/v1/subscriptions/"+sub.ID, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	for _, path := range []string{
		"/v1/subscriptions/" + sub.ID,
		"/v1/subscriptions/" + sub.ID + "/events?wait=1ms",
	} {
		req = httptest.NewRequest("GET", path, nil)
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusNotFound {
			t.Fatalf("GET %s after delete: status %d", path, w.Code)
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error.Code != CodeNotFound {
			t.Fatalf("GET %s: error code %q, want %q", path, er.Error.Code, CodeNotFound)
		}
	}
	req = httptest.NewRequest("DELETE", "/v1/subscriptions/"+sub.ID, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", w.Code)
	}
}

// sseClient reads SSE frames from a live connection.
type sseClient struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func dialSSE(t testing.TB, baseURL, id string, lastEventID uint64) *sseClient {
	t.Helper()
	req, err := http.NewRequest("GET", baseURL+"/v1/subscriptions/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE dial: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("SSE content type %q", ct)
	}
	return &sseClient{resp: resp, sc: bufio.NewScanner(resp.Body)}
}

func (c *sseClient) close() { c.resp.Body.Close() }

// next reads one SSE event frame (skipping heartbeat comments), or
// reports stream end.
func (c *sseClient) next(t testing.TB) (standing.Event, bool) {
	t.Helper()
	var ev standing.Event
	var data []byte
	seen := false
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			continue
		case strings.HasPrefix(line, "id: "), strings.HasPrefix(line, "event: "):
			seen = true
		case strings.HasPrefix(line, "data: "):
			seen = true
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && seen:
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			return ev, true
		}
	}
	return ev, false
}

// TestSSEStreamAndResume drives the full SSE lifecycle over a real
// connection: snapshot on connect, diff on ingest, client disconnect
// mid-stream, then a Last-Event-ID resume that carries the stream
// across a background rebuild and registry swap — and the resumed
// stream's replay matches /v1/mine at the final version.
func TestSSEStreamAndResume(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	sub := createSub(t, h, seattleSub)

	c := dialSSE(t, ts.URL, sub.ID, 0)
	ev, ok := c.next(t)
	if !ok || ev.Type != "snapshot" || ev.Seq != 1 {
		t.Fatalf("first SSE frame: %+v ok=%v", ev, ok)
	}

	ingestRows(t, h, []map[string]string{seattleRow}, "never")
	ev, ok = c.next(t)
	if !ok || ev.Type != "diff" || ev.Seq != 2 {
		t.Fatalf("second SSE frame: %+v ok=%v", ev, ok)
	}
	lastSeen := ev.Seq

	// Disconnect mid-stream; the subscription itself survives.
	c.close()

	// Background rebuild + registry swap while disconnected.
	old, err := reg.Get("salary")
	if err != nil {
		t.Fatal(err)
	}
	ingestRows(t, h, []map[string]string{seattleRow}, "force")
	deadline := time.Now().Add(30 * time.Second)
	for {
		now, err := reg.Get("salary")
		if err != nil {
			t.Fatal(err)
		}
		if now.Generation() > old.Generation() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rebuild never swapped the registry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	quiesceServer(t, s)
	// One more post-swap ingest through the fresh engine.
	ingestRows(t, h, []map[string]string{seattleRow}, "never")
	quiesceServer(t, s)

	// Resume from the last seen sequence: the replayed tail must cover
	// the pre-swap diff, the epoch, and the post-swap diff, and fold to
	// exactly the current /v1/mine answer.
	c = dialSSE(t, ts.URL, sub.ID, lastSeen)
	state := make(map[string]colarm.Rule)
	res := decodeMine(t, postJSON(t, h, "/v1/mine", seattleSub))
	for _, r := range res.Rules {
		state[ruleKeyJSON(r)] = r
	}
	got := make(map[string]colarm.Rule)
	// Seed from the pre-disconnect state (snapshot + first diff).
	seedEvs := poll(t, h, sub.ID, 0, "1s")
	if len(seedEvs) < 2 {
		t.Fatalf("expected at least snapshot+diff buffered, got %+v", seedEvs)
	}
	sawEpoch := false
	for _, ev := range seedEvs[:2] {
		applyEvent(got, ev)
	}
	for len(got) == 0 || !sawEpoch || !mapsEqualJSON(got, state) {
		ev, ok := c.next(t)
		if !ok {
			t.Fatalf("stream ended before replay converged\nreplayed: %v\nwant: %v", got, state)
		}
		if ev.Seq <= lastSeen {
			t.Fatalf("resume re-delivered seq %d <= %d", ev.Seq, lastSeen)
		}
		if ev.Type == "epoch" {
			sawEpoch = true
		}
		applyEvent(got, ev)
	}
	c.close()
}

func ruleKeyJSON(r colarm.Rule) string {
	return strings.Join(r.Antecedent, "\x1f") + "\x1e" + strings.Join(r.Consequent, "\x1f")
}

func applyEvent(state map[string]colarm.Rule, ev standing.Event) {
	switch ev.Type {
	case "snapshot":
		for k := range state {
			delete(state, k)
		}
		for _, r := range ev.Rules {
			state[ruleKeyJSON(r)] = r
		}
	case "diff", "epoch":
		for _, r := range ev.Disappeared {
			delete(state, ruleKeyJSON(r))
		}
		for _, r := range ev.Appeared {
			state[ruleKeyJSON(r)] = r
		}
		for _, r := range ev.Updated {
			state[ruleKeyJSON(r)] = r
		}
	}
}

func mapsEqualJSON(a, b map[string]colarm.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return false
		}
		aj, _ := json.Marshal(av)
		bj, _ := json.Marshal(bv)
		if !bytes.Equal(aj, bj) {
			return false
		}
	}
	return true
}

// TestSSESlowConsumerEviction keeps a throttled SSE consumer connected
// while affecting ingests wrap its tiny event ring: the stream must
// end with a terminal "evicted" event, never silently.
func TestSSESlowConsumerEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{SubscriptionBuffer: 2})
	s.sseDelay = 40 * time.Millisecond
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	sub := createSub(t, h, seattleSub)
	c := dialSSE(t, ts.URL, sub.ID, 0)
	defer c.close()

	// Flood: each affecting ingest appends one diff; the consumer reads
	// at 40ms/event, so the 2-slot ring wraps past it.
	for i := 0; i < 12; i++ {
		ingestRows(t, h, []map[string]string{seattleRow}, "never")
		quiesceServer(t, s)
	}

	sawEvicted := false
	for {
		ev, ok := c.next(t)
		if !ok {
			break
		}
		if ev.Type == "evicted" {
			sawEvicted = true
			if ev.Reason == "" {
				t.Fatal("evicted event carries no reason")
			}
		}
	}
	if !sawEvicted {
		t.Fatal("stream closed without a terminal evicted event")
	}

	// A fresh connection resyncs with a snapshot reflecting the current
	// rule set.
	c2 := dialSSE(t, ts.URL, sub.ID, 1)
	defer c2.close()
	ev, ok := c2.next(t)
	if !ok || ev.Type != "snapshot" {
		t.Fatalf("resync frame: %+v ok=%v", ev, ok)
	}
	res := decodeMine(t, postJSON(t, h, "/v1/mine", seattleSub))
	if len(ev.Rules) != len(res.Rules) {
		t.Fatalf("resync snapshot has %d rules, mine has %d", len(ev.Rules), len(res.Rules))
	}
}

// TestMineNotServedStaleAfterIngest pins the version-keyed cache: an
// ingest bumps the version clock, so the next identical query must
// re-execute instead of serving the pre-ingest cached rules.
func TestMineNotServedStaleAfterIngest(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	first := decodeMine(t, postJSON(t, h, "/v1/mine", seattleSub))
	if first.Cached || first.Version != 0 {
		t.Fatalf("first mine: cached=%v version=%d", first.Cached, first.Version)
	}
	hit := decodeMine(t, postJSON(t, h, "/v1/mine", seattleSub))
	if !hit.Cached {
		t.Fatal("identical query at the same version must hit the cache")
	}

	ingestRows(t, h, []map[string]string{seattleRow}, "never")

	after := decodeMine(t, postJSON(t, h, "/v1/mine", seattleSub))
	if after.Cached {
		t.Fatal("post-ingest query served a stale pre-ingest cache entry")
	}
	if after.Version != 1 {
		t.Fatalf("post-ingest version %d, want 1", after.Version)
	}
	if after.Generation != first.Generation {
		t.Fatalf("generation moved without a rebuild: %d -> %d", first.Generation, after.Generation)
	}
	b1, _ := json.Marshal(first.Rules)
	b2, _ := json.Marshal(after.Rules)
	if bytes.Equal(b1, b2) {
		t.Fatal("affecting ingest left the mined rules unchanged (diluted supports expected)")
	}
}

// TestSubscribeIngestRebuildRace is the -race soak: concurrent
// subscribers, ingesters (tolerating 409s from rebuild races), forced
// rebuilds, SSE consumers and deleters against one server.
func TestSubscribeIngestRebuildRace(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	stop := time.After(1500 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
	}()
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}

	var wg sync.WaitGroup
	// Subscribers create, poll and delete.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for running() {
				w := postJSON(t, h, "/v1/subscriptions", seattleSub)
				if w.Code != http.StatusCreated {
					t.Errorf("subscribe: %d %s", w.Code, w.Body.String())
					return
				}
				var sub subscriptionJSON
				if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
					t.Error(err)
					return
				}
				req := httptest.NewRequest("GET",
					"/v1/subscriptions/"+sub.ID+"/events?wait=20ms", nil)
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				req = httptest.NewRequest("DELETE", "/v1/subscriptions/"+sub.ID, nil)
				rw = httptest.NewRecorder()
				h.ServeHTTP(rw, req)
			}
		}()
	}
	// Ingesters, sometimes forcing rebuilds.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 0
			for running() {
				n++
				rebuild := "never"
				if i == 0 && n%5 == 0 {
					rebuild = "force"
				}
				body := map[string]any{
					"dataset": "salary",
					"inserts": []map[string]string{seattleRow},
					"rebuild": rebuild,
				}
				w := postJSON(t, h, "/v1/ingest", body)
				if w.Code != http.StatusOK && w.Code != http.StatusConflict {
					t.Errorf("ingest: %d %s", w.Code, w.Body.String())
					return
				}
			}
		}(i)
	}
	// One persistent SSE consumer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub := createSub(t, h, map[string]any{
			"dataset":       "salary",
			"range":         map[string][]string{"Location": {"Boston"}},
			"minSupport":    0.3,
			"minConfidence": 0.5,
		})
		c := dialSSE(t, ts.URL, sub.ID, 0)
		go func() {
			<-done
			c.close()
		}()
		for {
			if _, ok := c.next(t); !ok {
				return
			}
		}
	}()
	wg.Wait()
	quiesceServer(t, s)
}
