package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"colarm"
	"colarm/internal/obs"
)

func salaryEngine(t testing.TB, metrics *colarm.MetricsRegistry) *colarm.Engine {
	t.Helper()
	ds, err := colarm.Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.18, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t testing.TB, cfg Config) (*Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.Register(salaryEngine(t, cfg.EngineMetrics))
	s := New(reg, cfg)
	t.Cleanup(s.Close)
	return s, reg
}

func postJSON(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeMine(t testing.TB, w *httptest.ResponseRecorder) mineResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp mineResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

var seattleQuery = map[string]any{
	"dataset":        "salary",
	"range":          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
	"itemAttributes": []string{"Age", "Salary"},
	"minSupport":     0.70,
	"minConfidence":  0.95,
}

func TestMineJSONAndCacheHit(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	first := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	if first.Cached {
		t.Fatal("first query must not be a cache hit")
	}
	if len(first.Rules) == 0 {
		t.Fatal("no rules mined")
	}
	if first.Stats.DurationNanos == 0 {
		t.Error("fresh execution should report a nonzero duration")
	}

	second := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	if !second.Cached {
		t.Fatal("identical query must be served from cache")
	}
	// Cache hits return the same rules and estimates...
	r1, _ := json.Marshal(first.Rules)
	r2, _ := json.Marshal(second.Rules)
	if !bytes.Equal(r1, r2) {
		t.Errorf("cached rules differ:\n%s\n%s", r1, r2)
	}
	e1, _ := json.Marshal(first.Estimates)
	e2, _ := json.Marshal(second.Estimates)
	if !bytes.Equal(e1, e2) {
		t.Errorf("cached estimates differ:\n%s\n%s", e1, e2)
	}
	// ...under an identity-only Stats: every operator counter zero.
	st := second.Stats
	if st.Plan != first.Stats.Plan || st.SubsetSize != first.Stats.SubsetSize ||
		st.MinSupportCount != first.Stats.MinSupportCount {
		t.Errorf("cache hit lost execution identity: %+v", st)
	}
	for name, v := range map[string]int{
		"rNodesVisited": st.RNodesVisited, "rEntriesChecked": st.REntriesChecked,
		"candidates": st.Candidates, "supportChecks": st.SupportChecks,
		"eliminated": st.Eliminated, "qualified": st.Qualified,
		"rulesEmitted": st.RulesEmitted,
	} {
		if v != 0 {
			t.Errorf("cache hit %s = %d, want 0", name, v)
		}
	}
	if st.DurationNanos != 0 {
		t.Errorf("cache hit durationNanos = %d, want 0", st.DurationNanos)
	}
	if got := s.cache.hits.Value(); got != 1 {
		t.Errorf("cache hits counter = %d, want 1", got)
	}
	if got := s.cache.misses.Value(); got != 1 {
		t.Errorf("cache misses counter = %d, want 1", got)
	}
}

// TestCanonicalOrderSharesCache is the latent-bug regression: queries
// differing only in item-attribute (or range-value) order must share a
// cache entry.
func TestCanonicalOrderSharesCache(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	reordered := map[string]any{
		"dataset":        "salary",
		"range":          map[string][]string{"Gender": {"F"}, "Location": {"Seattle"}},
		"itemAttributes": []string{"Salary", "Age"}, // reversed
		"minSupport":     0.70,
		"minConfidence":  0.95,
	}
	resp := decodeMine(t, postJSON(t, h, "/v1/mine", reordered))
	if !resp.Cached {
		t.Error("reordered-but-equivalent query missed the cache")
	}
}

func TestQLBodyAndRouting(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	ql := `REPORT LOCALIZED ASSOCIATION RULES FROM salary
		WHERE RANGE Location = (Seattle), Gender = (F)
		AND ITEM ATTRIBUTES Age, Salary
		HAVING minsupport = 70% AND minconfidence = 95%;`

	// Raw text/plain QL body.
	req := httptest.NewRequest("POST", "/v1/mine", strings.NewReader(ql))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := decodeMine(t, w)
	if resp.Dataset != "salary" {
		t.Errorf("dataset = %q, want salary (routed by FROM clause)", resp.Dataset)
	}
	if len(resp.Rules) == 0 {
		t.Error("QL query found no rules")
	}

	// The equivalent JSON-embedded QL shares the cache with the raw form.
	resp2 := decodeMine(t, postJSON(t, h, "/v1/mine", map[string]any{"ql": ql}))
	if !resp2.Cached {
		t.Error("same QL via JSON body missed the cache")
	}

	// Dataset field disagreeing with the FROM clause is a 400.
	w = postJSON(t, h, "/v1/mine", map[string]any{"dataset": "other", "ql": ql})
	if w.Code != http.StatusBadRequest {
		t.Errorf("disagreeing dataset: status = %d, want 400", w.Code)
	}
}

func TestErrorStatuses(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown dataset", map[string]any{"dataset": "nope", "minSupport": 0.5, "minConfidence": 0.5}, http.StatusNotFound},
		{"bad threshold", map[string]any{"dataset": "salary", "minSupport": 0.0, "minConfidence": 0.5}, http.StatusBadRequest},
		{"unknown range attribute", map[string]any{"dataset": "salary", "range": map[string][]string{"Nope": {"x"}}, "minSupport": 0.5, "minConfidence": 0.5}, http.StatusBadRequest},
		{"unknown range value", map[string]any{"dataset": "salary", "range": map[string][]string{"Location": {"Atlantis"}}, "minSupport": 0.5, "minConfidence": 0.5}, http.StatusBadRequest},
		{"unknown plan", map[string]any{"dataset": "salary", "minSupport": 0.5, "minConfidence": 0.5, "plan": "X-Y-Z"}, http.StatusBadRequest},
		{"unknown item attribute", map[string]any{"dataset": "salary", "itemAttributes": []string{"Nope"}, "minSupport": 0.5, "minConfidence": 0.5}, http.StatusBadRequest},
		{"bad timeout", map[string]any{"dataset": "salary", "minSupport": 0.5, "minConfidence": 0.5, "timeout": "soon"}, http.StatusBadRequest},
		{"unknown JSON field", map[string]any{"dataset": "salary", "minSupport": 0.5, "minConfidence": 0.5, "bogus": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		w := postJSON(t, h, "/v1/mine", tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (body: %s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
			t.Errorf("%s: error body not JSON with message: %s", tc.name, w.Body.String())
		}
	}

	// Empty body.
	req := httptest.NewRequest("POST", "/v1/mine", strings.NewReader("  "))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("empty body: status = %d, want 400", w.Code)
	}
}

func TestDeadlineExceededIs504(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	body := map[string]any{}
	for k, v := range seattleQuery {
		body[k] = v
	}
	body["timeout"] = "1ns"
	w := postJSON(t, h, "/v1/mine", body)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504 (body: %s)", w.Code, w.Body.String())
	}
}

func TestTraceBypassesCache(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	traced := map[string]any{}
	for k, v := range seattleQuery {
		traced[k] = v
	}
	traced["trace"] = true
	resp := decodeMine(t, postJSON(t, h, "/v1/mine", traced))
	if resp.Trace == "" {
		t.Error("traced query returned no trace tree")
	}
	if resp.Cached {
		t.Error("traced query must not hit the cache")
	}
	resp = decodeMine(t, postJSON(t, h, "/v1/mine", traced))
	if resp.Cached {
		t.Error("traced query must not fill the cache either")
	}
	if s.uncached.Value() < 2 {
		t.Errorf("uncacheable counter = %d, want >= 2", s.uncached.Value())
	}

	// noCache likewise skips lookup and fill.
	noCache := map[string]any{}
	for k, v := range seattleQuery {
		noCache[k] = v
	}
	noCache["noCache"] = true
	decodeMine(t, postJSON(t, h, "/v1/mine", noCache))
	if resp := decodeMine(t, postJSON(t, h, "/v1/mine", noCache)); resp.Cached {
		t.Error("noCache query hit the cache")
	}
}

func TestGenerationBumpInvalidates(t *testing.T) {
	cfg := Config{}
	s, reg := newTestServer(t, cfg)
	h := s.Handler()

	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	if resp := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery)); !resp.Cached {
		t.Fatal("warm-up: second query should hit")
	}

	// Another engine of the same generation (a reload of the same
	// build) is refused and retires nothing.
	if err := reg.Register(salaryEngine(t, nil)); err == nil {
		t.Fatal("a same-generation engine replaced the registered one")
	}
	if resp := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery)); !resp.Cached {
		t.Error("a refused registration retired the cached result")
	}

	// A later generation (a rebuild) replaces it, and its generation
	// retires the cached keys.
	eng, err := reg.Get("salary")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(fresh); err != nil {
		t.Fatal(err)
	}
	resp := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	if resp.Cached {
		t.Error("query after the rebuild swap served a stale generation")
	}
	if resp.Generation != 1 {
		t.Errorf("generation after one rebuild = %d, want 1", resp.Generation)
	}
	if err := reg.Register(eng); err == nil {
		t.Error("an earlier generation replaced a later one")
	}
}

func TestCacheDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: -1})
	h := s.Handler()
	if s.cache != nil {
		t.Fatal("CacheEntries < 0 should disable the cache")
	}
	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	if resp := decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery)); resp.Cached {
		t.Error("cache disabled but query reported a hit")
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/explain", seattleQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body: %s", w.Code, w.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Estimates) != 6 {
		t.Errorf("estimates = %d, want 6", len(resp.Estimates))
	}
	w = postJSON(t, h, "/v1/explain", map[string]any{"dataset": "nope", "minSupport": 0.5, "minConfidence": 0.5})
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown dataset: status = %d, want 404", w.Code)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	_ = reg
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/datasets", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Datasets) != 1 || resp.Datasets[0].Name != "salary" {
		t.Fatalf("datasets = %+v", resp.Datasets)
	}
	d := resp.Datasets[0]
	// An engine Open built is generation 0: no rebuild yet.
	if d.Records == 0 || len(d.Attributes) == 0 || d.Partitions == 0 || d.Generation != 0 {
		t.Errorf("dataset info incomplete: %+v", d)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	metrics := colarm.NewMetricsRegistry()
	s, _ := newTestServer(t, Config{EngineMetrics: metrics})
	h := s.Handler()

	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))
	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"colarm_cache_hits_total 1",
		"colarm_cache_misses_total 1",
		"colarm_http_requests_total",
		"colarm_admission_admitted_total 1",
		"colarm_queries_total", // engine-side metric from the shared registry
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestOverloadReturns429 fills every slot and the whole queue, then
// checks the next request is turned away immediately.
func TestOverloadReturns429(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, QueueWait: 50 * time.Millisecond})
	h := s.Handler()

	// Occupy the only slot from outside a request.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	body := map[string]any{}
	for k, v := range seattleQuery {
		body[k] = v
	}
	body["noCache"] = true
	w := postJSON(t, h, "/v1/mine", body)
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429 (body: %s)", w.Code, w.Body.String())
	}
	if s.adm.rejected.Value() == 0 {
		t.Error("rejected counter not incremented")
	}
}

func TestAdmissionQueueing(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(1, 4, time.Second, reg)

	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A queued waiter gets the slot when it frees.
	got := make(chan error, 1)
	go func() { got <- a.acquire(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	a.release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release()
	if a.queued.Value() != 1 {
		t.Errorf("queued counter = %d, want 1", a.queued.Value())
	}

	// Queue-wait expiry is errOverloaded, not a context error.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := newAdmission(1, 4, 20*time.Millisecond, reg)
	if err := b.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.acquire(context.Background()); !errors.Is(err, errOverloaded) {
		t.Errorf("queue-wait expiry = %v, want errOverloaded", err)
	}
	// The caller's own cancellation propagates as ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.acquire(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled acquire = %v, want context.Canceled", err)
	}
	a.release()
	b.release()
}

func TestAdmissionConcurrentBound(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(2, 64, time.Second, reg)
	var (
		mu      sync.Mutex
		cur, mx int
		wg      sync.WaitGroup
	)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			cur++
			if cur > mx {
				mx = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			a.release()
		}()
	}
	wg.Wait()
	if mx > 2 {
		t.Errorf("max concurrency = %d, want <= 2", mx)
	}
}

func TestRegistryUnknown(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Get("nope"); err == nil {
		t.Error("unknown dataset must error")
	}
}

// fakeBody is a stand-in reply body of n bytes: the cache never looks
// inside one.
func fakeBody(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }

func TestCacheBytesAndCounters(t *testing.T) {
	c := newResultCache(64, 0, obs.NewRegistry())
	body := fakeBody(100)
	c.put("k", body)

	got := c.get("k")
	if got == nil {
		t.Fatal("miss after put")
	}
	if &got[0] != &body[0] || len(got) != len(body) {
		t.Error("a hit must hand out the stored bytes, not a copy")
	}
	if c.hits.Value() != 1 || c.misses.Value() != 0 {
		t.Errorf("hits=%d misses=%d, want 1/0", c.hits.Value(), c.misses.Value())
	}
	if c.get("absent") != nil {
		t.Error("absent key returned a body")
	}
	if c.misses.Value() != 1 {
		t.Errorf("misses = %d, want 1", c.misses.Value())
	}
	if want := int64(len("k") + len(body)); c.bytes.Value() != want {
		t.Errorf("colarm_cache_bytes = %d, want %d", c.bytes.Value(), want)
	}
	// A refill replaces the entry without counting an eviction.
	c.put("k", fakeBody(40))
	if c.len() != 1 || c.bytes.Value() != 41 || c.evictions.Value() != 0 {
		t.Errorf("after refill: len=%d bytes=%d evictions=%d, want 1/41/0", c.len(), c.bytes.Value(), c.evictions.Value())
	}
}

// TestCacheHitImmutable is the guarantee the deep copies used to buy:
// nothing a client does with a reply can change the next hit, because
// the handler only ever writes the stored bytes out.
func TestCacheHitImmutable(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	decodeMine(t, postJSON(t, h, "/v1/mine", seattleQuery))

	w := postJSON(t, h, "/v1/mine", seattleQuery)
	want := append([]byte(nil), w.Body.Bytes()...)
	resp := decodeMine(t, w)
	if !resp.Cached || len(resp.Rules) == 0 {
		t.Fatalf("warm-up: cached=%v rules=%d", resp.Cached, len(resp.Rules))
	}
	// Scribble over everything the first hit handed back.
	resp.Rules[0].Antecedent[0] = "corrupted"
	resp.Stats.SupportChecks = 99
	raw := w.Body.Bytes()
	for i := range raw {
		raw[i] = '!'
	}
	if got := postJSON(t, h, "/v1/mine", seattleQuery).Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("second hit differs from the first:\n%s\n%s", got, want)
	}
}

func TestCacheTTL(t *testing.T) {
	c := newResultCache(64, 10*time.Millisecond, obs.NewRegistry())
	c.put("k", fakeBody(10))
	if c.get("k") == nil {
		t.Fatal("entry expired immediately")
	}
	time.Sleep(20 * time.Millisecond)
	if c.get("k") != nil {
		t.Error("entry outlived its TTL")
	}
	if c.evictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1 (TTL drop)", c.evictions.Value())
	}
	if c.len() != 0 || c.bytes.Value() != 0 {
		t.Errorf("len = %d, bytes = %d after TTL eviction, want 0", c.len(), c.bytes.Value())
	}

	// A negative CacheTTL survives the defaults and keeps entries until
	// evicted: a stored entry carries no expiry.
	cfg := Config{CacheTTL: -1}.withDefaults()
	forever := newResultCache(64, cfg.CacheTTL, obs.NewRegistry())
	forever.put("k", fakeBody(10))
	sh := forever.shard("k")
	if ent := sh.m["k"].Value.(*cacheEntry); !ent.expires.IsZero() {
		t.Errorf("CacheTTL -1 stored an entry expiring at %v, want no expiry", ent.expires)
	}
}

// shardKeys returns n distinct keys that all land in c's shard sh.
// len returns the entry count across all shards (expired entries still
// resident are counted; they leave on next touch).
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

func shardKeys(c *resultCache, sh *cacheShard, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestCacheEviction(t *testing.T) {
	// Capacity 16 = one entry per shard: a second entry in any shard
	// evicts that shard's older one.
	c := newResultCache(16, 0, obs.NewRegistry())
	for i := 0; i < 64; i++ {
		c.put(fmt.Sprintf("key-%d", i), fakeBody(10))
	}
	if c.len() > 16 {
		t.Errorf("len = %d, want <= 16", c.len())
	}
	if c.evictions.Value() != int64(64-c.len()) {
		t.Errorf("evictions = %d, want %d", c.evictions.Value(), 64-c.len())
	}

	// LRU order: touch a key, add a colliding one, the touched key stays.
	d := newResultCache(cacheShardCount*2, 0, obs.NewRegistry())
	shard0 := shardKeys(d, &d.shards[0], 3)
	d.put(shard0[0], fakeBody(10))
	d.put(shard0[1], fakeBody(10))
	d.get(shard0[0]) // now most recently used
	d.put(shard0[2], fakeBody(10))
	if d.get(shard0[0]) == nil {
		t.Error("recently used entry was evicted")
	}
	if d.get(shard0[1]) != nil {
		t.Error("least recently used entry survived eviction")
	}
}

// TestCacheByteBudget fills one shard with replies the size of
// mine_mip's, far fewer than its entry capacity: the byte budget alone
// must hold the line, evicting in LRU order.
func TestCacheByteBudget(t *testing.T) {
	c := newResultCache(4096, 0, obs.NewRegistry())
	keys := shardKeys(c, &c.shards[0], 40)
	const size = 1 << 20
	for _, k := range keys {
		c.put(k, fakeBody(size))
		if got := c.shards[0].bytes; got > cacheShardBytes {
			t.Fatalf("shard holds %d bytes, budget %d", got, cacheShardBytes)
		}
	}
	resident := cacheShardBytes / (size + len(keys[0])) // 15: keys count too
	if c.len() != resident || c.evictions.Value() != int64(len(keys)-resident) {
		t.Errorf("len=%d evictions=%d, want %d/%d", c.len(), c.evictions.Value(), resident, len(keys)-resident)
	}
	if got := c.bytes.Value(); got != int64(c.shards[0].bytes) || got == 0 {
		t.Errorf("colarm_cache_bytes = %d, shard holds %d", got, c.shards[0].bytes)
	}
	if c.get(keys[0]) != nil || c.get(keys[len(keys)-1]) == nil {
		t.Error("byte pressure must evict the oldest entries, not the newest")
	}

	// A body no shard could hold is refused, counted, and evicts nothing.
	before, evicted := c.len(), c.evictions.Value()
	c.put("huge", fakeBody(cacheShardBytes))
	if c.get("huge") != nil || c.len() != before || c.evictions.Value() != evicted+1 {
		t.Errorf("oversized body: len %d -> %d, evictions %d -> %d", before, c.len(), evicted, c.evictions.Value())
	}

	// mine_hot's working set, 64 replies of ~50 KB, is nowhere near
	// either bound.
	hot := newResultCache(4096, 0, obs.NewRegistry())
	for i := 0; i < 64; i++ {
		hot.put(fmt.Sprintf("hot-%d", i), fakeBody(50<<10))
	}
	if hot.len() != 64 || hot.evictions.Value() != 0 {
		t.Errorf("hot working set: len=%d evictions=%d, want 64/0", hot.len(), hot.evictions.Value())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(128, time.Minute, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%32)
				if i%3 == 0 {
					c.put(k, fakeBody(20))
				} else if body := c.get(k); body != nil && len(body) != 20 {
					t.Errorf("hit returned %d bytes, want 20", len(body))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentMineRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 64, QueueWait: 10 * time.Second})
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := map[string]any{
				"dataset":       "salary",
				"range":         map[string][]string{"Location": {"Seattle"}},
				"minSupport":    0.5,
				"minConfidence": 0.5,
				"noCache":       g%2 == 0, // mix cached and uncached paths
			}
			w := postJSON(t, h, "/v1/mine", body)
			if w.Code != http.StatusOK {
				t.Errorf("status = %d: %s", w.Code, w.Body.String())
			}
		}(g)
	}
	wg.Wait()
}
