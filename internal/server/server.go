// Package server is COLARM's serving layer: an HTTP service that
// answers localized mining queries for a registry of named engines,
// with per-request deadlines propagated into the executing operators,
// admission control bounding concurrent mining work, and a sharded LRU
// result cache keyed by the canonical query form.
//
// Endpoints (the route table in routes.go is authoritative, and
// api/openapi.yaml documents every route on it):
//
//	POST   /v1/mine                     execute a query (JSON body, or a
//	                                    COLARM-QL statement as text/plain)
//	POST   /v1/explain                  optimizer cost estimates without
//	                                    executing
//	POST   /v1/ingest                   buffer live inserts/deletes into a
//	                                    dataset's delta store; may trigger
//	                                    a background rebuild
//	GET    /v1/datasets                 registered datasets, their metadata
//	                                    and ingestion staleness
//	GET    /v1/datasets/{name}          one dataset's detail view: value
//	                                    domains, staleness, version, and
//	                                    the optimizer's unit costs
//	POST   /v1/subscriptions            register a standing query (201 +
//	                                    Location)
//	GET    /v1/subscriptions            list standing subscriptions
//	GET    /v1/subscriptions/{id}       one subscription
//	DELETE /v1/subscriptions/{id}       cancel a subscription
//	GET    /v1/subscriptions/{id}/events
//	                                    the subscription's rule-diff event
//	                                    stream: SSE by default (resumable
//	                                    via Last-Event-ID), one-shot JSON
//	                                    long-poll with ?wait=
//	GET    /metrics                     Prometheus exposition: server +
//	                                    engine metrics
//	GET    /debug/pprof                 the standard Go profiling handlers
//
// A request with a wrong method on any /v1 route is answered with a
// JSON 405 carrying an Allow header. Every /v1 error response is the
// structured envelope {"error": {"code", "message", "details"}} with a
// machine-readable code. JSON replies are compact and carry a
// Content-Length.
//
// Ingested transactions are merged into every subsequent answer, so
// queries stay exact while the base index ages; when the buffered rows
// and tombstones reach 1/20 of the base records (or the client forces
// it), the server rebuilds the index in the background —
// the old engine keeps serving throughout — and atomically swaps the
// new engine into the registry. The new engine is the next generation
// (colarm.Engine.Generation, which every reply reports), so the swap
// retires every cached result keyed under the old one. While a dataset is rebuilding, further ingests for it are
// rejected with 409 Conflict (they could land after the rebuild's
// snapshot and be lost in the swap); queries are never blocked.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"colarm"
	"colarm/internal/obs"
	"colarm/internal/pool"
	"colarm/internal/standing"
)

// Config tunes one Server. Zero values select the defaults noted on
// each field.
type Config struct {
	// MaxInFlight caps concurrently executing mining queries
	// (default 8). Cache hits, explains and listings don't consume
	// slots.
	MaxInFlight int
	// MaxQueue caps queries waiting for a slot (default 32; negative
	// keeps a strict no-queue policy where busy means 429).
	MaxQueue int
	// QueueWait caps the time a query waits for a slot before a 429
	// (default 2s).
	QueueWait time.Duration
	// QueryTimeout is the server-imposed deadline on each mining
	// request (default 30s; <0 disables). Clients may ask for less via
	// the request's "timeout" field, never more.
	QueryTimeout time.Duration
	// CacheEntries bounds the result cache (total entries, default
	// 4096; <0 disables caching).
	CacheEntries int
	// CacheTTL expires cached results (default 5m; negative keeps
	// entries until evicted).
	CacheTTL time.Duration
	// EngineMetrics, when non-nil, is the shared registry the server's
	// engines were opened with; /metrics appends its exposition after
	// the server's own metrics.
	EngineMetrics *colarm.MetricsRegistry
	// MaxSubscriptions caps live standing-query subscriptions
	// (default 1024).
	MaxSubscriptions int
	// SubscriptionBuffer is each subscription's bounded event-ring
	// capacity (default 256); a consumer that falls this far behind is
	// evicted with a terminal event.
	SubscriptionBuffer int
	// SSEHeartbeat is the keep-alive comment interval on idle event
	// streams (default 15s).
	SSEHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 32
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 5 * time.Minute
	}
	if c.SSEHeartbeat == 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// Server serves mining queries over HTTP for a registry of engines.
type Server struct {
	cfg      Config
	reg      *Registry
	cache    *resultCache // nil when caching is disabled
	adm      *admission
	metrics  *obs.Registry
	standing *standing.Manager
	// sseDelay is a test knob: a per-event write delay simulating a
	// slow SSE consumer, so eviction is deterministic under test.
	sseDelay time.Duration
	// rebuildFault, when set, is called by each background rebuild
	// before it mines. Test hook: tests panic in it.
	rebuildFault func()

	requests map[string]*obs.Counter
	errors   map[string]*obs.Counter
	uncached *obs.Counter

	rebuildsStarted *obs.Counter
	rebuildsFailed  *obs.Counter
	// rebuilds counts the background rebuilds in flight; Close waits for
	// them before it closes the standing manager they re-attach to.
	rebuilds sync.WaitGroup

	// ing serializes delta mutations against engine swaps: an ingest
	// applies, and a rebuild starts or registers its result, only under
	// this lock, so no accepted transaction can slip into an engine
	// after its rebuild snapshot was taken. Ingestion is cheap (no
	// mining), so one lock across datasets is fine at this scale; the
	// expensive rebuild itself runs outside the lock. closed, set by
	// Close, stops new rebuilds from starting.
	ing struct {
		sync.Mutex
		rebuilding map[string]bool
		closed     bool
	}
}

// New assembles a server over the given engine registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, m),
		metrics:  m,
		requests: make(map[string]*obs.Counter),
		errors:   make(map[string]*obs.Counter),
		uncached: m.Counter("colarm_uncacheable_queries_total",
			"Mined queries not stored in the result cache (traced or no-cache requests)."),
	}
	s.rebuildsStarted = m.Counter("colarm_server_rebuilds_started_total",
		"Background index rebuilds started by the refresh policy or forced by clients.")
	s.rebuildsFailed = m.Counter("colarm_server_rebuilds_failed_total",
		"Background index rebuilds that failed (the old engine keeps serving).")
	s.ing.rebuilding = make(map[string]bool)
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, cfg.CacheTTL, m)
	}
	for _, ep := range []string{"mine", "explain", "ingest", "datasets", "metrics", "subscriptions", "events"} {
		labels := fmt.Sprintf("endpoint=%q", ep)
		s.requests[ep] = m.CounterWith("colarm_http_requests_total", labels, "HTTP requests served, by endpoint.")
		s.errors[ep] = m.CounterWith("colarm_http_request_errors_total", labels, "HTTP requests answered with a non-2xx status, by endpoint.")
	}
	// The standing-query manager shares the server's metrics registry
	// and hooks every registered engine's apply-notice stream; rebuild
	// swaps re-attach the fresh engine (see rebuild).
	s.standing = standing.NewManager(standing.Config{
		MaxSubscriptions: cfg.MaxSubscriptions,
		EventBuffer:      cfg.SubscriptionBuffer,
		Metrics:          m,
	})
	for _, info := range reg.List() {
		if eng, err := reg.Get(info.Name); err == nil {
			s.standing.Attach(info.Name, eng)
		}
	}
	return s
}

// Close waits for the background rebuilds in flight, then stops the
// standing-query manager, terminating every subscription and so ending
// every open event stream. An ingest after Close starts no rebuild. The
// HTTP handler must not be used after Close.
func (s *Server) Close() {
	s.ing.Lock()
	s.ing.closed = true
	s.ing.Unlock()
	s.rebuilds.Wait()
	s.standing.Close()
}

// queryBody is what every request that names a query carries: exactly
// one of QL (a COLARM-QL statement) or the facade's structured Query
// describes it; Dataset routes the structured form and is implied by
// QL's FROM clause. The query's fields are colarm.Query's own, so a
// field added to the facade type is accepted here with no further edit.
type queryBody struct {
	Dataset string `json:"dataset"`
	QL      string `json:"ql,omitempty"`
	colarm.Query
}

// mineRequest is the JSON body of /v1/mine and /v1/explain (a QL
// statement is also accepted as a raw text/plain body): a query and the
// request's options.
type mineRequest struct {
	queryBody
	// Timeout is a Go duration string ("250ms", "5s") lowering the
	// server's per-query deadline for this request.
	Timeout string `json:"timeout,omitempty"`
	// Trace attaches the per-operator execution trace to the response.
	// Traced queries bypass the result cache.
	Trace bool `json:"trace,omitempty"`
	// NoCache skips the result cache for this request (both lookup and
	// fill).
	NoCache bool `json:"noCache,omitempty"`
}

// mineResponse places a colarm.Result on the wire: where the answer
// sits, then the facade's own rules, stats and estimates.
type mineResponse struct {
	Dataset string `json:"dataset"`
	// Generation and Version locate the answer on the dataset's
	// (engine generation, delta version-clock) timeline, correlating it
	// with ingest responses and standing-query events.
	Generation uint64                `json:"generation"`
	Version    uint64                `json:"version"`
	Cached     bool                  `json:"cached"`
	Rules      []colarm.Rule         `json:"rules"`
	Stats      colarm.Stats          `json:"stats"`
	Estimates  []colarm.PlanEstimate `json:"estimates,omitempty"`
	Trace      string                `json:"trace,omitempty"`
}

type explainResponse struct {
	Dataset    string                `json:"dataset"`
	Generation uint64                `json:"generation"`
	Version    uint64                `json:"version"`
	Estimates  []colarm.PlanEstimate `json:"estimates"`
}

// Request body limits: a query is small; an ingest batch may carry
// thousands of rows.
const (
	maxQueryBody  = 1 << 20
	maxIngestBody = 8 << 20
)

// readBody reads the request body, refusing one over limit bytes with
// 413 rather than decoding its first limit bytes.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, badRequestError{fmt.Errorf("reading body: %w", err)}
	}
	if int64(len(body)) > limit {
		return nil, tooLargeError(limit)
	}
	return body, nil
}

// decodeStrict decodes body, which must be exactly one JSON value of v's
// shape: an unknown field is refused, and so is anything but white space
// after the value — a client that sent more than one thing is not
// answered as if it had sent the first.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestError{fmt.Errorf("decoding JSON body: %w", err)}
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequestError{errors.New("decoding JSON body: unexpected data after the JSON value")}
	}
	return nil
}

// decodeBody is how every JSON request body is read: under a size
// limit, strictly, into v.
func decodeBody(r *http.Request, limit int64, v any) error {
	body, err := readBody(r, limit)
	if err != nil {
		return err
	}
	return decodeStrict(body, v)
}

// parseRequest decodes the request body into the engine-independent
// parts of a mine request: JSON bodies directly, raw COLARM-QL bodies
// (text/plain, or any body not starting with '{') into the QL field.
func parseRequest(r *http.Request) (*mineRequest, error) {
	body, err := readBody(r, maxQueryBody)
	if err != nil {
		return nil, err
	}
	body = bytes.TrimSpace(body)
	if len(body) == 0 {
		return nil, badRequestError{errors.New("empty request body")}
	}
	var req mineRequest
	if body[0] != '{' {
		req.QL = string(body) // a raw COLARM-QL statement
	} else if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// resolve turns a request's query into the engine and the query to run.
// A QL statement is parsed here, once, and routes by its FROM clause;
// nothing past this point sees its text.
func (s *Server) resolve(b *queryBody) (*colarm.Engine, colarm.Query, error) {
	name, q := b.Dataset, b.Query
	if b.QL != "" {
		from, parsed, err := colarm.ParseQL(b.QL)
		if err != nil {
			return nil, q, badRequestError{err}
		}
		if name != "" && !strings.EqualFold(name, from) {
			return nil, q, badRequestError{fmt.Errorf("dataset field %q disagrees with FROM clause %q", name, from)}
		}
		name, q = from, parsed
	}
	eng, err := s.reg.Get(name)
	if err != nil {
		return nil, q, notFoundError{err}
	}
	if err := q.Validate(); err != nil {
		return nil, q, err
	}
	return eng, q, nil
}

// requestContext derives the query's execution context: the server's
// QueryTimeout, tightened (never loosened) by the request's own
// timeout field.
func (s *Server) requestContext(ctx context.Context, req *mineRequest) (context.Context, context.CancelFunc, error) {
	limit := s.cfg.QueryTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil {
			return nil, nil, badRequestError{fmt.Errorf("bad timeout %q: %w", req.Timeout, err)}
		}
		if d > 0 && (limit <= 0 || d < limit) {
			limit = d
		}
	}
	if limit > 0 {
		ctx, cancel := context.WithTimeout(ctx, limit)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.requests["mine"].Inc()
	req, err := parseRequest(r)
	if err != nil {
		s.fail(w, "mine", err)
		return
	}
	eng, q, err := s.resolve(&req.queryBody)
	if err != nil {
		s.fail(w, "mine", err)
		return
	}
	q.Trace = req.Trace
	name, gen := eng.Dataset().Name(), eng.Generation()
	ver := eng.Version()

	cacheable := s.cache != nil && !q.Trace && !req.NoCache
	var key string
	if cacheable {
		key = cacheKey(name, gen, ver, q)
		if body := s.cache.get(key); body != nil {
			writeBody(w, http.StatusOK, body)
			return
		}
	} else if s.cache != nil {
		s.uncached.Inc()
	}

	ctx, cancel, err := s.requestContext(r.Context(), req)
	if err != nil {
		s.fail(w, "mine", err)
		return
	}
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		s.fail(w, "mine", err)
		return
	}
	// The rules go straight from the engine's answer into the reply's
	// pooled buffer: a miss builds no []colarm.Rule.
	rules := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(rules)
	b, res, err := eng.MineJSON(ctx, q, rules.AvailableBuffer())
	s.adm.release()
	if err != nil {
		s.fail(w, "mine", err)
		return
	}
	// The buffer takes over what MineJSON appended — even when it grew
	// the slice — so the rules are written once and never copied.
	*rules = *bytes.NewBuffer(b)

	resp := mineResponse{
		Dataset:    name,
		Generation: gen,
		Version:    eng.Version(),
		Stats:      res.Stats,
		Estimates:  res.Estimates,
	}
	if res.Trace != nil {
		resp.Trace = res.Trace.Tree()
	}
	// Skip the fill when an ingest landed mid-mine: the result may
	// reflect the newer version and must not be pinned to this key.
	head, tail, hit, err := encodeMine(rules.Bytes(), resp, cacheable && resp.Version == ver)
	if err != nil {
		s.fail(w, "mine", err)
		return
	}
	if hit != nil {
		s.cache.put(key, hit)
	}
	writeBody(w, http.StatusOK, head, rules.Bytes(), tail)
}

// encodeMine encodes the envelope around a mined reply's rules array,
// which MineJSON encoded and which is all but a few hundred bytes of
// the reply: head and tail are resp's json.Marshal encoding before and
// after the array. With fill set, hit is the whole body a later cache
// hit on this result sends: cached:true and only the execution's
// identity left in stats. resp.Rules is ignored.
func encodeMine(rules []byte, resp mineResponse, fill bool) (head, tail, hit []byte, err error) {
	resp.Rules = []colarm.Rule{}
	if head, tail, err = cutRules(resp); err != nil || !fill {
		return head, tail, nil, err
	}
	resp.Cached = true
	resp.Stats = colarm.Stats{Plan: resp.Stats.Plan, SubsetSize: resp.Stats.SubsetSize, MinSupportCount: resp.Stats.MinSupportCount}
	hitHead, hitTail, err := cutRules(resp)
	if err != nil {
		return nil, nil, nil, err
	}
	return head, tail, bytes.Join([][]byte{hitHead, rules, hitTail}, nil), nil
}

// emptyRules is how a mineResponse with no rules encodes them. Inside a
// JSON string a '"' is always escaped, so within a reply these bytes can
// only be the member itself.
var emptyRules = []byte(`"rules":[]`)

// cutRules encodes resp, whose Rules must be the empty slice, and cuts
// the encoding around that "[]".
func cutRules(resp mineResponse) (head, tail []byte, err error) {
	env, err := json.Marshal(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding response: %w", err)
	}
	i := bytes.Index(env, emptyRules) + len(emptyRules)
	return env[:i-len("[]")], env[i:], nil
}

// cacheKey names a reply in the result cache. It carries generation AND
// delta version: an ingest bumps the version, so post-ingest queries
// can never be served a stale pre-ingest cached result (rules are a
// pure function of the version clock).
func cacheKey(dataset string, gen, ver uint64, q colarm.Query) string {
	return fmt.Sprintf("%s@g%d.v%d|%s", dataset, gen, ver, q.Canonical())
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.requests["explain"].Inc()
	req, err := parseRequest(r)
	if err != nil {
		s.fail(w, "explain", err)
		return
	}
	eng, q, err := s.resolve(&req.queryBody)
	if err != nil {
		s.fail(w, "explain", err)
		return
	}
	ctx, cancel, err := s.requestContext(r.Context(), req)
	if err != nil {
		s.fail(w, "explain", err)
		return
	}
	defer cancel()
	ests, err := eng.ExplainContext(ctx, q)
	if err != nil {
		s.fail(w, "explain", err)
		return
	}
	s.writeJSON(w, http.StatusOK, explainResponse{
		Dataset:    eng.Dataset().Name(),
		Generation: eng.Generation(),
		Version:    eng.Version(),
		Estimates:  ests,
	})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.requests["datasets"].Inc()
	s.writeJSON(w, http.StatusOK, struct {
		Datasets []DatasetInfo `json:"datasets"`
	}{s.reg.List()})
}

// datasetDetail is the GET /v1/datasets/{name} view: the listing entry
// plus the delta version clock, the full staleness report and each
// attribute's value domain (the vocabulary ingest inserts must use).
type datasetDetail struct {
	DatasetInfo
	Version       uint64              `json:"version"`
	Staleness     colarm.Staleness    `json:"staleness"`
	Domains       map[string][]string `json:"domains"`
	Subscriptions int                 `json:"subscriptions"`
	// Units are the unit costs the optimizer prices this engine's plans
	// with.
	Units colarm.UnitCosts `json:"units"`
}

func (s *Server) handleDatasetDetail(w http.ResponseWriter, r *http.Request) {
	s.requests["datasets"].Inc()
	name := r.PathValue("name")
	eng, err := s.reg.Get(name)
	if err != nil {
		s.fail(w, "datasets", notFoundError{err})
		return
	}
	ds := eng.Dataset()
	st := eng.Staleness()
	detail := datasetDetail{
		DatasetInfo: describe(eng, st),
		Version:     st.Version,
		Staleness:   st,
		Domains:     make(map[string][]string, len(ds.Attributes())),
		Units:       eng.UnitCosts(),
	}
	for _, a := range ds.Attributes() {
		vals, _ := ds.Values(a)
		detail.Domains[a] = vals
	}
	for _, sub := range s.standing.List() {
		if sub.Dataset() == name {
			detail.Subscriptions++
		}
	}
	s.writeJSON(w, http.StatusOK, detail)
}

// ingestRequest is the JSON body of /v1/ingest. Each insert maps every
// attribute name to a value label from the dataset's frozen vocabulary;
// deletes name record ids (base records first, then inserts in arrival
// order). Rebuild selects the refresh policy for this request: "auto"
// (default) rebuilds in the background once the staleness recommends it
// (buffered rows plus tombstones reach 1/20 of the base records),
// "force" always rebuilds, "never" only buffers.
type ingestRequest struct {
	Dataset string              `json:"dataset"`
	Inserts []map[string]string `json:"inserts,omitempty"`
	Deletes []int               `json:"deletes,omitempty"`
	Rebuild string              `json:"rebuild,omitempty"`
}

type ingestResponse struct {
	Dataset  string `json:"dataset"`
	Inserted int    `json:"inserted"`
	// Deleted counts the records the batch tombstoned: an id named twice,
	// or one an earlier batch already deleted, is not counted again.
	Deleted    int              `json:"deleted"`
	Generation uint64           `json:"generation"`
	Version    uint64           `json:"version"`
	Staleness  colarm.Staleness `json:"staleness"`
	// RebuildStarted reports that this request kicked off a background
	// rebuild; the dataset's generation bumps when it swaps in.
	RebuildStarted bool `json:"rebuildStarted"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.requests["ingest"].Inc()
	var req ingestRequest
	if err := decodeBody(r, maxIngestBody, &req); err != nil {
		s.fail(w, "ingest", err)
		return
	}
	switch req.Rebuild {
	case "", "auto", "force", "never":
	default:
		s.fail(w, "ingest", badRequestError{fmt.Errorf("bad rebuild policy %q (want auto, force or never)", req.Rebuild)})
		return
	}

	s.ing.Lock()
	eng, err := s.reg.Get(req.Dataset)
	if err != nil {
		s.ing.Unlock()
		s.fail(w, "ingest", notFoundError{err})
		return
	}
	name := eng.Dataset().Name()
	if s.ing.rebuilding[name] {
		s.ing.Unlock()
		s.fail(w, "ingest", conflictError{
			err:     fmt.Errorf("dataset %q is rebuilding; retry when the generation bumps", name),
			dataset: name,
		})
		return
	}
	// s.ing serialises ingests, so the tombstones this batch adds are the
	// difference across it.
	before := eng.Staleness().Tombstones
	st, err := eng.IngestContext(r.Context(), req.Inserts, req.Deletes)
	if err != nil {
		s.ing.Unlock()
		s.fail(w, "ingest", err)
		return
	}
	started := false
	if !s.ing.closed && (req.Rebuild == "force" || (req.Rebuild != "never" && st.RebuildRecommended)) {
		s.ing.rebuilding[name] = true
		started = true
		s.rebuildsStarted.Inc()
		s.rebuilds.Add(1)
		go s.rebuild(name, eng)
	}
	s.ing.Unlock()

	s.writeJSON(w, http.StatusOK, ingestResponse{
		Dataset:        name,
		Inserted:       len(req.Inserts),
		Deleted:        st.Tombstones - before,
		Generation:     st.Generation,
		Version:        st.Version,
		Staleness:      st,
		RebuildStarted: started,
	})
}

// rebuild runs one background index rebuild and swaps the fresh engine
// into the registry. The old engine serves queries (and stays reachable
// for in-flight ones) for the whole duration; the fresh engine is the
// next generation, so the swap retires every cached result keyed under
// the old one. Failures, a panic in the rebuild included, leave the old
// engine in place.
func (s *Server) rebuild(name string, eng *colarm.Engine) {
	defer s.rebuilds.Done()
	var fresh *colarm.Engine
	var err error
	if perr := pool.Catch(func() {
		if s.rebuildFault != nil {
			s.rebuildFault()
		}
		fresh, err = eng.Rebuild(context.Background())
	}); perr != nil {
		err = perr
	}
	s.ing.Lock()
	if err == nil {
		err = s.reg.Register(fresh)
	}
	if err != nil {
		s.rebuildsFailed.Inc()
	}
	delete(s.ing.rebuilding, name)
	s.ing.Unlock()
	if err == nil {
		// Re-hook standing queries onto the fresh engine: trackers
		// re-baseline and emit an epoch event re-anchoring the version
		// clock, so event streams survive the swap.
		s.standing.Attach(name, fresh)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests["metrics"].Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
	if s.cfg.EngineMetrics != nil {
		_ = s.cfg.EngineMetrics.WritePrometheus(w)
	}
}

// bufPool holds the buffers replies are encoded into, so a reply costs
// no allocation that grows with its size.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBuffer(b *bytes.Buffer) {
	b.Reset()
	bufPool.Put(b)
}

// encodeJSON appends to buf exactly the bytes json.Marshal(v) returns.
func encodeJSON(buf *bytes.Buffer, v any) error {
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // Encode's trailing newline
	return nil
}

// writeJSON answers with v as compact JSON. The reply is encoded before
// the status line is committed, so a value that cannot be encoded
// becomes a 500 envelope rather than a truncated 200.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	if err := encodeJSON(buf, v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = encodeJSON(buf, errorResponse{Error: errorBody{Code: CodeInternal, Message: "encoding response: " + err.Error()}})
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody sends an already encoded JSON reply, given in parts, under
// its Content-Length.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		_, _ = w.Write(p) // a failed write means the client has gone
	}
}
