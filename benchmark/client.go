package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colarm"
	"colarm/internal/server"
)

// env is one set-up system under test: the engines opened with the
// server's defaults, registered with a real internal/server handler on
// a loopback listener, and the client's own view of each dataset.
type env struct {
	tables  []*table
	engines []*colarm.Engine
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
}

// openEnv generates every fixture's dataset, opens its engine the way
// colarm-serve does (Calibrate=false, Workers=0, Shards=0, flat
// layout, one shared metrics registry) and starts the server with
// Config{} defaults.
func openEnv(fixtures []fixture) (*env, error) {
	e := &env{}
	metrics := colarm.NewMetricsRegistry()
	reg := server.NewRegistry()
	for _, f := range fixtures {
		csv, err := f.csv()
		if err != nil {
			return nil, err
		}
		ds, err := colarm.ReadCSV(f.name, bytes.NewReader(csv))
		if err != nil {
			return nil, err
		}
		eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: f.primary, Metrics: metrics})
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", f.name, err)
		}
		reg.Register(eng)
		t, err := newTable(f, ds)
		if err != nil {
			return nil, err
		}
		e.tables = append(e.tables, t)
		e.engines = append(e.engines, eng)
	}
	e.srv = server.New(reg, server.Config{EngineMetrics: metrics})
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = e.ts.Client()
	// One kept-alive connection per client goroutine and SSE stream.
	e.client.Transport.(*http.Transport).MaxIdleConnsPerHost = 16
	return e, nil
}

// close stops the listener (waiting for its connections to end) and
// the server's background workers.
func (e *env) close() {
	e.ts.CloseClientConnections()
	e.ts.Close()
	e.srv.Close()
}

// wireRule and mineReply decode the parts of a /v1/mine response the
// harness checks.
type wireRule struct {
	Antecedent      []string `json:"antecedent"`
	Consequent      []string `json:"consequent"`
	SupportCount    int      `json:"supportCount"`
	AntecedentCount int      `json:"antecedentCount"`
	SubsetSize      int      `json:"subsetSize"`
}

func (r wireRule) rule() colarm.Rule {
	return colarm.Rule{Antecedent: r.Antecedent, Consequent: r.Consequent,
		SupportCount: r.SupportCount, AntecedentCount: r.AntecedentCount, SubsetSize: r.SubsetSize}
}

func wireAnswer(rules []wireRule) answer {
	a := answer{rules: len(rules)}
	for _, r := range rules {
		a.hash += ruleHash(r.rule())
	}
	return a
}

type wireStats struct {
	RNodesVisited int `json:"rNodesVisited"`
	Candidates    int `json:"candidates"`
	SupportChecks int `json:"supportChecks"`
	Eliminated    int `json:"eliminated"`
	OracleCalls   int `json:"oracleCalls"`
	OracleMisses  int `json:"oracleMisses"`
	RulesEmitted  int `json:"rulesEmitted"`
}

type mineReply struct {
	Version uint64     `json:"version"`
	Cached  bool       `json:"cached"`
	Rules   []wireRule `json:"rules"`
	Stats   wireStats  `json:"stats"`
}

// post sends one request body and reads the whole reply; the returned
// latency runs from send to the last body byte.
func (e *env) post(path, contentType string, body []byte) (status int, reply []byte, latency time.Duration, err error) {
	start := time.Now()
	resp, err := e.client.Post(e.ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	reply, err = io.ReadAll(resp.Body)
	latency = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, reply, latency, err
}

// mine sends one /v1/mine request and decodes its reply. Decoding
// happens after the latency is taken.
func (e *env) mine(r request) (mineReply, int, time.Duration, error) {
	body, ctype := r.body(e.tables[r.table].name)
	status, raw, lat, err := e.post("/v1/mine", ctype, body)
	if err != nil {
		return mineReply{}, 0, lat, err
	}
	if status != http.StatusOK {
		return mineReply{}, len(raw), lat, fmt.Errorf("/v1/mine: status %d: %.200s", status, raw)
	}
	var rep mineReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return mineReply{}, len(raw), lat, fmt.Errorf("/v1/mine: decoding reply: %w", err)
	}
	return rep, len(raw), lat, nil
}

// sample is one completed request of a closed-loop pass.
type sample struct {
	table   int
	latency time.Duration
	bytes   int
	stats   wireStats
}

// passResult is what one closed-loop pass over a list observed.
type passResult struct {
	samples  []sample
	failed   int
	firstErr error
	wall     time.Duration
}

func (p *passResult) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// memDelta is the runtime's allocation and collection activity over an
// interval (client and server share the process).
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// memNow reads the runtime's counters, the "before" of a memSince.
func memNow() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// drive runs one closed-loop pass: each of clients goroutines takes
// the next unsent request — n of them in all, from list[offset],
// wrapping around the list — and sends it only when its previous reply
// is fully read. check, when non-nil, judges each decoded reply; a
// non-nil error counts the request as failed.
func (e *env) drive(list []request, clients, offset, n int, check func(r request, rep mineReply) error) passResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  passResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local passResult
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				r := list[(offset+i)%len(list)]
				rep, size, lat, err := e.mine(r)
				if err == nil && check != nil {
					err = check(r, rep)
				}
				if err != nil {
					local.fail(err)
					continue
				}
				local.samples = append(local.samples, sample{table: r.table, latency: lat, bytes: size, stats: rep.Stats})
			}
			mu.Lock()
			out.samples = append(out.samples, local.samples...)
			out.failed += local.failed
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// getJSON reads a GET endpoint's JSON reply into v.
func (e *env) getJSON(path string, v any) error {
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads /metrics.
func (e *env) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return promSamples(resp.Body), nil
}
