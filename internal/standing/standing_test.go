package standing

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"colarm"
)

func salaryEngine(t testing.TB) *colarm.Engine {
	t.Helper()
	ds, err := colarm.Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func quiesce(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// drain returns every event currently buffered past the cursor without
// blocking for more.
func drain(t testing.TB, c *Cursor) []Event {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out []Event
	for {
		evs, err := c.Next(ctx)
		out = append(out, evs...)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
				return out
			}
			t.Fatalf("drain: %v", err)
		}
	}
}

// replay folds an event stream into the rule set it describes: a
// snapshot resets the state, a diff or epoch drops Disappeared and
// upserts Appeared and Updated.
func replay(evs []Event) map[string]colarm.Rule {
	state := map[string]colarm.Rule{}
	for _, ev := range evs {
		switch ev.Type {
		case EventSnapshot:
			state = make(map[string]colarm.Rule, len(ev.Rules))
			for _, r := range ev.Rules {
				state[colarm.RuleKey(r)] = r
			}
		case EventDiff, EventEpoch:
			for _, r := range ev.Disappeared {
				delete(state, colarm.RuleKey(r))
			}
			for _, r := range ev.Appeared {
				state[colarm.RuleKey(r)] = r
			}
			for _, r := range ev.Updated {
				state[colarm.RuleKey(r)] = r
			}
		}
	}
	return state
}

func ruleMap(rules []colarm.Rule) map[string]colarm.Rule {
	out := make(map[string]colarm.Rule, len(rules))
	for _, r := range rules {
		out[colarm.RuleKey(r)] = r
	}
	return out
}

// TestReplayDifferential is the tentpole's correctness bar: for every
// plan, serial (workers1: GOMAXPROCS 1, which every fan-out sizes
// itself from) and parallel (workers0: GOMAXPROCS as it is), replaying
// a subscription's event stream over a randomized ingest interleaving
// reconstructs exactly the rule set /v1/mine would return at the final
// version.
func TestReplayDifferential(t *testing.T) {
	plans := []colarm.Plan{colarm.SEV, colarm.SVS, colarm.SSEV, colarm.SSVS, colarm.SSEUV, colarm.ARM}
	for _, procs := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			rng := rand.New(rand.NewSource(int64(20260818 + procs)))
			eng := salaryEngine(t)
			ds := eng.Dataset()
			m := NewManager(Config{EventBuffer: 4096})
			defer m.Close()
			m.Attach("salary", eng)

			// One subscription per plan: the forced plan is part of the
			// canonical form, so each gets its own tracker.
			base := colarm.Query{
				Range:          map[string][]string{"Location": {"Boston", "Seattle"}},
				ItemAttributes: []string{"Company", "Gender", "Age", "Salary"},
				MinSupport:     0.25,
				MinConfidence:  0.5,
			}
			cursors := make(map[colarm.Plan]*Cursor, len(plans))
			for _, p := range plans {
				q := base
				q.Plan = p
				s, err := m.Create(context.Background(), "salary", q, nil)
				if err != nil {
					t.Fatalf("create plan %s: %v", p, err)
				}
				cursors[p] = s.Cursor(0)
			}

			attrs := ds.Attributes()
			vocab := make(map[string][]string, len(attrs))
			for _, a := range attrs {
				vocab[a], _ = ds.Values(a)
			}
			live := make([]int, ds.NumRecords())
			for i := range live {
				live[i] = i
			}
			nextID := ds.NumRecords()
			for step := 0; step < 8; step++ {
				var inserts []map[string]string
				for i := 0; i < 1+rng.Intn(4); i++ {
					rec := make(map[string]string, len(attrs))
					for _, a := range attrs {
						rec[a] = vocab[a][rng.Intn(len(vocab[a]))]
					}
					inserts = append(inserts, rec)
				}
				var deletes []int
				if rng.Intn(2) == 0 && len(live) > 6 {
					j := rng.Intn(len(live))
					deletes = append(deletes, live[j])
					live = append(live[:j], live[j+1:]...)
				}
				if _, err := eng.Ingest(inserts, deletes); err != nil {
					t.Fatalf("step %d: ingest: %v", step, err)
				}
				for range inserts {
					live = append(live, nextID)
					nextID++
				}
			}
			quiesce(t, m)

			for _, p := range plans {
				q := base
				q.Plan = p
				res, err := eng.Mine(q)
				if err != nil {
					t.Fatalf("final mine plan %s: %v", p, err)
				}
				evs := drain(t, cursors[p])
				if len(evs) == 0 || evs[0].Type != EventSnapshot || evs[0].Seq != 1 {
					t.Fatalf("plan %s: stream must open with snapshot seq 1, got %+v", p, evs)
				}
				// Diff intervals must tile: each event starts where the
				// previous ended, and sequence numbers are contiguous.
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Fatalf("plan %s: sequence gap: %d then %d", p, evs[i-1].Seq, evs[i].Seq)
					}
					if evs[i].FromVersion != evs[i-1].ToVersion {
						t.Fatalf("plan %s: interval gap: [..%d] then [%d..]",
							p, evs[i-1].ToVersion, evs[i].FromVersion)
					}
				}
				got := replay(evs)
				want := ruleMap(res.Rules)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan %s: replayed rule set diverges from final mine\nreplayed %d rules, mined %d\nevents: %d",
						p, len(got), len(want), len(evs))
				}
			}
		})
	}
}

// TestConcurrentIngestReplay races concurrent ingesters against the
// diff worker and checks the stream still replays to the final mine.
func TestConcurrentIngestReplay(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{EventBuffer: 4096})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.3,
		MinConfidence: 0.5,
	}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)

	rows := []map[string]string{
		{"Company": "IBM", "Title": "Sw Engg", "Location": "Seattle", "Gender": "M", "Age": "20-30", "Salary": "60K-90K"},
		{"Company": "Google", "Title": "QA Lead", "Location": "Boston", "Gender": "F", "Age": "30-40", "Salary": "90K-120K"},
		{"Company": "Facebook", "Title": "Engg Mgr", "Location": "Seattle", "Gender": "F", "Age": "40-50", "Salary": "120K-150K"},
	}
	done := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 5; i++ {
				if _, err := eng.Ingest([]map[string]string{rows[(g+i)%len(rows)]}, nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 3; g++ {
		if err := <-done; err != nil {
			t.Fatalf("ingester: %v", err)
		}
	}
	quiesce(t, m)

	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replay(drain(t, c)), ruleMap(res.Rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d rules, final mine has %d", len(got), len(want))
	}
}

// TestCanonicalDedup shares one tracker across same-query subscribers
// and splits trackers when the canonical form differs.
func TestCanonicalDedup(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s1, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Create(context.Background(), "salary", q, &Track{Measure: "support", Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID() == s2.ID() {
		t.Fatalf("distinct subscriptions share id %s", s1.ID())
	}
	qf := q
	qf.Plan = colarm.SEV
	if _, err := m.Create(context.Background(), "salary", qf, nil); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	trackers := len(m.trackers)
	m.mu.Unlock()
	if trackers != 2 {
		t.Fatalf("got %d trackers, want 2 (same canonical dedupes, forced plan splits)", trackers)
	}
	if g := m.active.Value(); g != 3 {
		t.Fatalf("active gauge %d, want 3", g)
	}
	if !m.Delete(s1.ID()) || !m.Delete(s2.ID()) {
		t.Fatal("delete returned false for live subscription")
	}
	m.mu.Lock()
	trackers = len(m.trackers)
	m.mu.Unlock()
	if trackers != 1 {
		t.Fatalf("got %d trackers after deletes, want 1 (empty tracker retires)", trackers)
	}
	if m.Delete(s1.ID()) {
		t.Fatal("double delete reported true")
	}
}

// TestAffectednessGate proves unaffected batches skip mining: rows
// outside every focal region produce no events and count as skips.
func TestAffectednessGate(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"SFO"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)
	quiesce(t, m) // settle the creation-race verify pass
	skipsBefore := m.skips.Value()

	boston := map[string]string{
		"Company": "IBM", "Title": "QA Lead", "Location": "Boston",
		"Gender": "M", "Age": "30-40", "Salary": "60K-90K",
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Ingest([]map[string]string{boston}, nil); err != nil {
			t.Fatal(err)
		}
		quiesce(t, m)
	}
	evs := drain(t, c)
	if len(evs) != 1 || evs[0].Type != EventSnapshot {
		t.Fatalf("expected only the initial snapshot for unaffected ingests, got %+v", evs)
	}
	if m.skips.Value() <= skipsBefore {
		t.Fatal("affectedness gate never skipped")
	}

	// A row inside the region must produce a diff.
	sfo := map[string]string{
		"Company": "IBM", "Title": "QA Lead", "Location": "SFO",
		"Gender": "M", "Age": "30-40", "Salary": "60K-90K",
	}
	if _, err := eng.Ingest([]map[string]string{sfo}, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, m)
	evs = drain(t, c)
	if len(evs) != 1 || evs[0].Type != EventDiff {
		t.Fatalf("expected one diff for affecting ingest, got %+v", evs)
	}
	if evs[0].FromVersion != 0 || evs[0].ToVersion != 4 {
		t.Fatalf("diff interval [%d,%d], want [0,4] (skipped batches covered)",
			evs[0].FromVersion, evs[0].ToVersion)
	}
}

// TestPanickingPassKeepsBaseline panics in the first diff pass of a
// tracker: the panic counts as a diff error, the worker lives on, the
// next affecting batch diffs from the baseline the failed pass had, and
// Close still returns.
func TestPanickingPassKeepsBaseline(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	m.Attach("salary", eng)
	q := colarm.Query{Range: map[string][]string{"Location": {"SFO"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)
	quiesce(t, m) // settle the creation-race verify pass
	passes := 0
	m.passFault = func() {
		if passes++; passes == 1 {
			panic("diff pass failed")
		}
	}
	sfo := map[string]string{
		"Company": "IBM", "Title": "QA Lead", "Location": "SFO",
		"Gender": "M", "Age": "30-40", "Salary": "60K-90K",
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Ingest([]map[string]string{sfo}, nil); err != nil {
			t.Fatal(err)
		}
		quiesce(t, m)
	}
	if passes < 2 || m.diffErrors.Value() != 1 {
		t.Fatalf("%d passes, %d diff errors; want the first pass's panic counted once", passes, m.diffErrors.Value())
	}
	evs := drain(t, c)
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replay(evs), ruleMap(res.Rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d rules, mined %d", len(got), len(want))
	}
	if last := evs[len(evs)-1]; last.Type != EventDiff || last.FromVersion != 0 || last.ToVersion != 2 {
		t.Fatalf("last event %s [%d,%d], want a diff over [0,2] from the kept baseline", last.Type, last.FromVersion, last.ToVersion)
	}
	closed := make(chan bool)
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a panicking pass")
	}
}

// TestSlowConsumerEviction wraps the ring past a live consumer and
// checks it receives a terminal evicted event, not silence.
func TestSlowConsumerEviction(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{EventBuffer: 2})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.2, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)
	if evs := drain(t, c); len(evs) != 1 || evs[0].Type != EventSnapshot {
		t.Fatalf("want initial snapshot, got %+v", evs)
	}

	seattle := map[string]string{
		"Company": "IBM", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "M", "Age": "20-30", "Salary": "60K-90K",
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Ingest([]map[string]string{seattle}, nil); err != nil {
			t.Fatal(err)
		}
		quiesce(t, m)
	}
	evs, err := c.Next(context.Background())
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("want ErrEvicted, got evs=%+v err=%v", evs, err)
	}
	if len(evs) != 1 || evs[0].Type != EventEvicted || evs[0].Reason == "" {
		t.Fatalf("want one terminal evicted event with reason, got %+v", evs)
	}
	if m.evictions.Value() == 0 || m.drops.Value() == 0 {
		t.Fatalf("eviction/drop counters not advanced: evictions=%d drops=%d",
			m.evictions.Value(), m.drops.Value())
	}

	// A fresh cursor resuming from the aged-out position resyncs with a
	// synthesized snapshot that replays to the current rule set.
	c2 := s.Cursor(0)
	evs, err = c2.Next(context.Background())
	if err != nil || len(evs) != 1 || evs[0].Type != EventSnapshot {
		t.Fatalf("want resync snapshot, got evs=%+v err=%v", evs, err)
	}
	res, err := eng.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replay(evs), ruleMap(res.Rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("resync snapshot replays to %d rules, mine has %d", len(got), len(want))
	}
}

// TestThresholdCrossing tracks a measure across a boundary: inserting
// a non-matching Seattle record dilutes every Seattle rule's support,
// pushing the 0.75-support rules below 0.7.
func TestThresholdCrossing(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, &Track{Measure: "support", Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)

	// Seattle has 4 records; Age=30-40 and Salary=90K-120K each cover 3
	// (support 0.75). One more Seattle record matching neither dilutes
	// them to 3/5 = 0.6 < 0.7.
	odd := map[string]string{
		"Company": "Google", "Title": "Tech Arch", "Location": "Seattle",
		"Gender": "M", "Age": "40-50", "Salary": "120K-150K",
	}
	if _, err := eng.Ingest([]map[string]string{odd}, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, m)

	evs := drain(t, c)
	var crossed []Crossing
	for _, ev := range evs {
		crossed = append(crossed, ev.Crossed...)
	}
	if len(crossed) == 0 {
		t.Fatalf("no crossings reported; events: %+v", evs)
	}
	for _, cr := range crossed {
		if cr.Measure != "support" || cr.Threshold != 0.7 {
			t.Fatalf("crossing carries wrong track: %+v", cr)
		}
		if cr.Direction != "below" || cr.Previous < 0.7 || cr.Current >= 0.7 {
			t.Fatalf("crossing direction/values inconsistent: %+v", cr)
		}
	}
}

// TestEpochOnRebuildSwap re-attaches a rebuilt engine: trackers emit an
// epoch event re-anchoring the version clock with an empty diff (the
// rebuild preserves exactness), and the stream still replays correctly
// across the swap.
func TestEpochOnRebuildSwap(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)

	seattle := map[string]string{
		"Company": "Microsoft", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "F", "Age": "30-40", "Salary": "90K-120K",
	}
	if _, err := eng.Ingest([]map[string]string{seattle}, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, m)

	rebuilt, err := eng.Rebuild(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m.Attach("salary", rebuilt)
	quiesce(t, m)

	evs := drain(t, c)
	last := evs[len(evs)-1]
	if last.Type != EventEpoch {
		t.Fatalf("last event after swap is %q, want epoch; events %+v", last.Type, evs)
	}
	if last.Generation != rebuilt.Generation() {
		t.Fatalf("epoch generation %d, want %d", last.Generation, rebuilt.Generation())
	}
	if len(last.Appeared)+len(last.Disappeared)+len(last.Updated) != 0 {
		t.Fatalf("exactness-preserving rebuild produced a non-empty epoch diff: %+v", last)
	}

	res, err := rebuilt.Mine(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replay(evs), ruleMap(res.Rules); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across epoch has %d rules, rebuilt mine has %d", len(got), len(want))
	}

	// Post-swap ingestion flows through the new attachment.
	if _, err := rebuilt.Ingest([]map[string]string{seattle}, nil); err != nil {
		t.Fatal(err)
	}
	quiesce(t, m)
	evs2 := drain(t, c)
	if len(evs2) != 1 || evs2[0].Type != EventDiff {
		t.Fatalf("post-swap ingest: want one diff, got %+v", evs2)
	}
}

// TestCreateValidation covers the error surface of Create.
func TestCreateValidation(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{MaxSubscriptions: 1})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	if _, err := m.Create(context.Background(), "nope", q, nil); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("unknown dataset: got %v", err)
	}
	if _, err := m.Create(context.Background(), "salary", q, &Track{Measure: "zeal", Threshold: 1}); !errors.Is(err, ErrBadTrack) {
		t.Fatalf("bad track measure: got %v", err)
	}
	if _, err := m.Create(context.Background(), "salary", q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(context.Background(), "salary", q, nil); !errors.Is(err, ErrLimit) {
		t.Fatalf("limit: got %v", err)
	}
	bad := q
	bad.MinSupport = 4
	m2 := NewManager(Config{})
	defer m2.Close()
	m2.Attach("salary", eng)
	if _, err := m2.Create(context.Background(), "salary", bad, nil); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// TestDeleteWakesConsumer checks a blocked consumer observes ErrClosed
// when its subscription is deleted.
func TestDeleteWakesConsumer(t *testing.T) {
	eng := salaryEngine(t)
	m := NewManager(Config{})
	defer m.Close()
	m.Attach("salary", eng)

	q := colarm.Query{Range: map[string][]string{"Location": {"Seattle"}}, MinSupport: 0.3, MinConfidence: 0.5}
	s, err := m.Create(context.Background(), "salary", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cursor(0)
	drain(t, c)

	errc := make(chan error, 1)
	go func() {
		_, err := c.Next(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Delete(s.ID())
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer not woken by delete")
	}
	if m.Get(s.ID()) != nil {
		t.Fatal("deleted subscription still resolvable")
	}
}

// TestCloseLeaksNoGoroutines closes a manager with two engines attached,
// a live subscription on each with a consumer blocked in Next, and a
// diff pass in flight: Close waits the pass out, every consumer wakes
// with ErrClosed, and the goroutine count returns to what it was before
// NewManager.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManager(Config{})
	sfo := map[string]string{
		"Company": "IBM", "Title": "QA Lead", "Location": "SFO",
		"Gender": "M", "Age": "30-40", "Salary": "60K-90K",
	}
	q := colarm.Query{Range: map[string][]string{"Location": {"SFO"}}, MinSupport: 0.3, MinConfidence: 0.5}
	var engines []*colarm.Engine
	consumers := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		eng := salaryEngine(t)
		engines = append(engines, eng)
		m.Attach(name, eng)
		s, err := m.Create(context.Background(), name, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := s.Cursor(0)
		drain(t, c) // the snapshot; the next Next blocks
		go func() {
			for {
				if _, err := c.Next(context.Background()); err != nil {
					consumers <- err
					return
				}
			}
		}()
	}
	quiesce(t, m) // settle the creation-race verify passes

	entered, release := make(chan struct{}), make(chan struct{})
	m.passFault = func() {
		entered <- struct{}{}
		<-release
	}
	if _, err := engines[0].Ingest([]map[string]string{sfo}, nil); err != nil {
		t.Fatal(err)
	}
	<-entered // a pass is in flight, held in the fault hook
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a diff pass in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the pass finished")
	}
	for range engines {
		if err := <-consumers; !errors.Is(err, ErrClosed) {
			t.Fatalf("a blocked consumer woke with %v, want ErrClosed", err)
		}
	}

	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines before NewManager, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
