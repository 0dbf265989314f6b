package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"time"

	"colarm"
)

// The ingest_notify fixture: full mushroom indexed at primary 0.30.
// Every applied batch rebuilds the merged view — CHARM at the primary
// plus IT-tree and boxes — which at the paper's 0.05 takes most of a
// second; 0.30 keeps a batch near 40 ms, so a run holds the 200
// batches a steady p95 needs (README, sizing facts).
var mushroomIngest = mushroomFull.withPrimary(0.30)

const (
	// The hot region H: the planted subpopulation of the mushroom
	// generator (about 45 % of the records).
	hotAttr  = "m01"
	hotValue = "m011"

	// A batch changes batchRows records of H: alternately four inserts
	// with three deletes and three inserts with four deletes, so the
	// focal subset's size changes every time — every rule's SubsetSize
	// with it, hence every awaited tracker must emit a diff — yet H does
	// not grow over a run and every batch is the same work.
	batchRows   = 7
	warmBatches = 10 // untimed batches of set-up
)

// wireEvent is one standing-query event as the SSE stream carries it.
type wireEvent struct {
	Type        string     `json:"type"`
	ToVersion   uint64     `json:"toVersion"`
	Rules       []wireRule `json:"rules"`
	Appeared    []wireRule `json:"appeared"`
	Disappeared []wireRule `json:"disappeared"`
	Updated     []wireRule `json:"updated"`

	read time.Time // when the event's last byte was read
}

// stream is one subscription and the client reading its SSE stream.
type stream struct {
	id     string
	query  colarm.Query
	events chan wireEvent
	cancel context.CancelFunc
	done   chan struct{}
	err    error // why the reader stopped; valid once done is closed

	// The client's replica of the subscription's rule set: the
	// snapshot with every later diff folded in.
	rules map[string]wireRule
}

// fold applies one event to the replica: a snapshot replaces it; a
// diff or epoch drops the disappeared rules and upserts the appeared
// and updated ones.
func (s *stream) fold(ev wireEvent) {
	switch ev.Type {
	case "snapshot":
		s.rules = map[string]wireRule{}
		for _, r := range ev.Rules {
			s.rules[colarm.RuleKey(r.rule())] = r
		}
	case "diff", "epoch":
		for _, r := range ev.Disappeared {
			delete(s.rules, colarm.RuleKey(r.rule()))
		}
		for _, rs := range [][]wireRule{ev.Appeared, ev.Updated} {
			for _, r := range rs {
				s.rules[colarm.RuleKey(r.rule())] = r
			}
		}
	}
}

func (s *stream) answer() answer {
	a := answer{rules: len(s.rules)}
	for _, r := range s.rules {
		a.hash += ruleHash(r.rule())
	}
	return a
}

// subscribe registers a standing query and starts reading its event
// stream.
func (e *env) subscribe(dataset string, q colarm.Query) (*stream, error) {
	body, _ := request{query: q}.body(dataset)
	status, raw, _, err := e.post("/v1/subscriptions", "application/json", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("/v1/subscriptions: status %d: %.200s", status, raw)
	}
	var sub struct {
		ID     string `json:"id"`
		Events string `json:"events"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+sub.Events, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("%s: status %d", sub.Events, resp.StatusCode)
	}
	// The buffer holds every event one batch can produce for a stream
	// (one diff, or the snapshot), so the reader never blocks on the
	// writer's turn.
	s := &stream{id: sub.ID, query: q, events: make(chan wireEvent, 4), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.err = readSSE(ctx, resp.Body, s.events)
	}()
	return s, nil
}

// readSSE parses the stream's data lines into events until the stream
// ends or the context is cancelled.
func readSSE(ctx context.Context, body io.Reader, out chan<- wireEvent) error {
	rd := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return err
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue // id:, event:, heartbeat comments, blank separators
		}
		ev := wireEvent{read: time.Now()}
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("decoding event: %w", err)
		}
		select {
		case out <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop ends the stream's reader and waits for it.
func (s *stream) stop() {
	s.cancel()
	<-s.done
}

// next waits for the stream's next event and folds it.
func (s *stream) next(timeout time.Duration) (wireEvent, error) {
	select {
	case ev := <-s.events:
		s.fold(ev)
		return ev, nil
	case <-s.done:
		return wireEvent{}, fmt.Errorf("subscription %s: stream ended: %w", s.id, s.err)
	case <-time.After(timeout):
		return wireEvent{}, fmt.Errorf("subscription %s: no event within %s", s.id, timeout)
	}
}

// ingestEnv is an environment with standing subscriptions and a
// writer's state.
type ingestEnv struct {
	*env
	awaited []*stream // each Range contains H; every batch must reach all of them
	cold    *stream   // Range excludes H; no batch may reach it
	mine    request   // the read-after-write query: awaited[0]'s
	rng     *rand.Rand
	hotRows []int // base records inside H
	live    []int // ids of earlier inserts not yet deleted
	nextID  int   // id the next insert gets
	turns   int   // batches sent so far
}

const eventTimeout = 30 * time.Second

// openIngestEnv sets up the ingest_notify system: the engine, one
// awaited subscription per CPU plus the cold one, each on its own SSE
// stream with its snapshot read, and the warm-up batches.
func openIngestEnv(o options) (*ingestEnv, error) {
	f := mushroomIngest
	if o.quick {
		f = mushroomQuick
	}
	e, err := openEnv([]fixture{f})
	if err != nil {
		return nil, err
	}
	ie := &ingestEnv{env: e, rng: rand.New(rand.NewSource(o.seed))}
	if err := ie.start(o); err != nil {
		ie.close()
		return nil, err
	}
	return ie, nil
}

func (ie *ingestEnv) start(o options) error {
	t := ie.tables[0]
	ai := slices.Index(t.attrs, hotAttr)
	if ai < 0 || !slices.Contains(t.values[ai], hotValue) {
		return fmt.Errorf("dataset %s has no %s=%s", t.name, hotAttr, hotValue)
	}
	hv := int32(slices.Index(t.values[ai], hotValue))
	var coldValues []string
	for _, label := range t.values[ai] {
		if label != hotValue {
			coldValues = append(coldValues, label)
		}
	}
	for r := 0; r < t.numRecords(); r++ {
		if t.cols[ai][r] == hv {
			ie.hotRows = append(ie.hotRows, r)
		}
	}
	ie.nextID = t.numRecords()

	base := colarm.Query{
		Range:         map[string][]string{hotAttr: {hotValue}},
		MinSupport:    t.minSupps[0],
		MinConfidence: t.minConfs[0],
		MaxConsequent: 1,
		// Forced, like the read-after-write mine: MIP and ARM answer sets
		// differ by design, so the replica check needs one plan, and a
		// MIP plan is what rides the merged view this workload is about.
		Plan: colarm.SSEUV,
	}
	for i := 0; i < o.clients; i++ {
		q := base
		q.MinSupport += 0.01 * float64(i) // distinct canonical forms: one tracker each
		s, err := ie.subscribe(t.name, q)
		if err != nil {
			return err
		}
		ie.awaited = append(ie.awaited, s)
	}
	coldQ := base
	coldQ.Range = map[string][]string{hotAttr: coldValues}
	var err error
	if ie.cold, err = ie.subscribe(t.name, coldQ); err != nil {
		return err
	}
	for _, s := range append([]*stream{ie.cold}, ie.awaited...) {
		if ev, err := s.next(eventTimeout); err != nil {
			return err
		} else if ev.Type != "snapshot" {
			return fmt.Errorf("subscription %s: first event is %q, want snapshot", s.id, ev.Type)
		}
	}
	ie.mine = request{query: base}
	for b := 0; b < warmBatches; b++ {
		if _, err := ie.batch(); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", b, err)
		}
	}
	return nil
}

func (ie *ingestEnv) close() {
	for _, s := range append(ie.awaited, ie.cold) {
		if s != nil {
			s.stop()
		}
	}
	ie.env.close()
}

// batchTimes is what one batch's client observed.
type batchTimes struct {
	ack    time.Duration   // /v1/ingest round trip
	mine   time.Duration   // the read-after-write /v1/mine
	notify []time.Duration // per awaited stream, ingest sent → covering diff read
	bytes  int             // the mine reply's size
	stats  wireStats
}

func (b batchTimes) notifyAll() time.Duration {
	worst := time.Duration(0)
	for _, d := range b.notify {
		worst = max(worst, d)
	}
	return worst
}

type ingestBody struct {
	Dataset string              `json:"dataset"`
	Inserts []map[string]string `json:"inserts,omitempty"`
	Deletes []int               `json:"deletes,omitempty"`
	Rebuild string              `json:"rebuild"`
}

type ingestReply struct {
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
}

// ingest posts one batch and returns the version it produced.
func (ie *ingestEnv) ingest(body ingestBody) (ingestReply, time.Duration, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return ingestReply{}, 0, err
	}
	status, reply, lat, err := ie.post("/v1/ingest", "application/json", raw)
	if err != nil {
		return ingestReply{}, lat, err
	}
	if status != http.StatusOK {
		return ingestReply{}, lat, fmt.Errorf("/v1/ingest: status %d: %.200s", status, reply)
	}
	var rep ingestReply
	return rep, lat, json.Unmarshal(reply, &rep)
}

// batch runs one writer turn: ingest rows copied from records inside H
// and delete the oldest earlier inserts (see batchRows) — the first
// turn only inserts — then at once a read-after-write mine of H, then
// wait until every awaited stream has delivered the diff covering the
// batch. The mine reply must carry the batch's version and equal the
// first subscription's replica.
func (ie *ingestEnv) batch() (batchTimes, error) {
	t := ie.tables[0]
	inserts := batchRows/2 + (ie.turns+1)%2 // 4, 3, 4, …
	deletes := min(batchRows-inserts, len(ie.live))
	ie.turns++
	body := ingestBody{Dataset: t.name, Rebuild: "never", Deletes: ie.live[:deletes:deletes]}
	ie.live = ie.live[deletes:]
	for i := 0; i < inserts; i++ {
		body.Inserts = append(body.Inserts, t.record(ie.hotRows[ie.rng.Intn(len(ie.hotRows))]))
		ie.live = append(ie.live, ie.nextID)
		ie.nextID++
	}

	var bt batchTimes
	sent := time.Now()
	ack, lat, err := ie.ingest(body)
	if err != nil {
		return bt, err
	}
	bt.ack = lat
	rep, n, lat, err := ie.env.mine(ie.mine)
	if err != nil {
		return bt, err
	}
	bt.mine, bt.bytes, bt.stats = lat, n, rep.Stats
	if rep.Version != ack.Version {
		return bt, fmt.Errorf("read-after-write mine answered at version %d, batch produced %d", rep.Version, ack.Version)
	}
	for _, s := range ie.awaited {
		for {
			ev, err := s.next(eventTimeout)
			if err != nil {
				return bt, err
			}
			if ev.ToVersion >= ack.Version {
				bt.notify = append(bt.notify, ev.read.Sub(sent))
				break
			}
		}
	}
	if got, want := wireAnswer(rep.Rules), ie.awaited[0].answer(); got != want {
		return bt, fmt.Errorf("version %d: mine reply has %d rules (hash %x), subscription replica %d (hash %x)",
			ack.Version, got.rules, got.hash, want.rules, want.hash)
	}
	return bt, nil
}

// finalCheck compares every awaited replica with a fresh /v1/mine of
// its query at the final version, and requires that the cold
// subscription saw no diff.
func (ie *ingestEnv) finalCheck() error {
	for _, s := range ie.awaited {
		// Uncached: the last read-after-write mine may have left this
		// very answer in the result cache.
		rep, _, _, err := ie.env.mine(request{query: s.query, noCache: true})
		if err != nil {
			return err
		}
		if got, want := s.answer(), wireAnswer(rep.Rules); got != want {
			return fmt.Errorf("subscription %s: snapshot+diffs give %d rules (hash %x), fresh mine %d (hash %x)",
				s.id, got.rules, got.hash, want.rules, want.hash)
		}
	}
	select {
	case ev := <-ie.cold.events:
		return fmt.Errorf("cold subscription received a %s event", ev.Type)
	default:
	}
	return nil
}

// setUpIngest opens and warms a fresh ingest environment reps times,
// keeping the last, and returns each set-up's time in seconds and the
// live heap it left.
func setUpIngest(o options, reps int) (ie *ingestEnv, secs, heaps []float64, err error) {
	for rep := 0; rep < reps; rep++ {
		if ie != nil {
			ie.close()
			runtime.GC()
		}
		start := time.Now()
		if ie, err = openIngestEnv(o); err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		heaps = append(heaps, heapAfterGC())
	}
	return ie, secs, heaps, nil
}

// ingestPass is how many writer turns make one pass of the batch loop;
// every turn is the same work, so any count of them compares like with
// like.
const ingestPass = 25

// batches runs n writer turns. A failed batch ends the loop: later
// batches would only repeat the fault.
func (ie *ingestEnv) batches(n int) (times []batchTimes, wall time.Duration, err error) {
	start := time.Now()
	for len(times) < n {
		bt, err := ie.batch()
		if err != nil {
			return times, time.Since(start), err
		}
		times = append(times, bt)
	}
	return times, time.Since(start), nil
}

// runIngestNotify measures the write workload's end-to-end metrics. A
// batch is two requests (the ingest and the read-after-write mine);
// latency is the notify latency: ingest sent → the covering diff read
// on every awaited stream.
func runIngestNotify(o options) (*result, error) {
	ie, setups, heaps, err := setUpIngest(o, o.reps)
	if err != nil {
		return nil, err
	}
	defer ie.close()

	res := newResult("ingest_notify")
	var passes []pass
	before := memNow()
	for start := time.Now(); err == nil && time.Since(start) < o.duration(); {
		var times []batchTimes
		var wall time.Duration
		times, wall, err = ie.batches(ingestPass)
		notify := make([]time.Duration, len(times))
		for i, bt := range times {
			notify[i] = bt.notifyAll()
		}
		passes = append(passes, pass{wall, notify})
		res.attempted += len(times)
	}
	mem := memSince(before)
	if err == nil {
		err = ie.finalCheck()
	}
	if err != nil {
		res.attempted++
		res.failed, res.firstErr = 1, err
	}
	requests := 2 * max(1, res.attempted)
	res.setSetUp(setups, heaps)
	res.setTimings(passes, 2)
	res.set("alloc_kb_per_req", float64(mem.allocBytes)/1024/float64(requests), requests)
	return res, nil
}
