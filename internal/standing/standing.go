// Package standing implements standing queries: localized association
// rule queries registered once and kept continuously up to date as
// ingestion mutates the dataset, with subscribers receiving an ordered
// stream of rule-set *diffs* instead of re-polling /v1/mine.
//
// The manager exploits the delta layer's exactness guarantee (a rule
// set is a pure function of the version clock) in two ways:
//
//   - Affectedness gating. Localized rules are computed entirely
//     within a query's focal subset, so an applied batch can only
//     change the rule set if one of its inserted or deleted records
//     lies inside the focal region (ApplyNotice.Affects). Batches that
//     miss every registered region skip mining entirely — the dominant
//     case when many narrow standing queries watch a wide ingest
//     stream.
//
//   - Shared incremental machinery. Affected queries are re-mined
//     through Engine.RuleDiff, which rides the merged-view cache (the
//     view is materialized at most once per version, shared across all
//     trackers diffed at that version) and diffs against the tracker's
//     baseline in O(|rules|).
//
// Queries are deduplicated by canonical form: any number of
// subscriptions to the same (dataset, canonical query) share one
// tracker, one baseline, and one mining pass per affecting batch.
package standing

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"colarm"
	"colarm/internal/obs"
	"colarm/internal/pool"
)

// Additional sentinel errors from Manager entry points.
var (
	// ErrNoDataset means no engine is attached under the requested
	// dataset name.
	ErrNoDataset = errors.New("standing: unknown dataset")
	// ErrBadTrack means a Track named an unknown measure.
	ErrBadTrack = errors.New("standing: unknown tracked measure")
)

// trackMeasures are the measures a Track may watch.
var trackMeasures = map[string]bool{
	"support": true, "confidence": true, "lift": true,
	"cosine": true, "kulczynski": true,
}

func measureValue(r colarm.Rule, m string) float64 {
	switch m {
	case "support":
		return r.Support
	case "confidence":
		return r.Confidence
	case "lift":
		return r.Lift
	case "cosine":
		return r.Cosine
	case "kulczynski":
		return r.Kulczynski
	}
	return 0
}

// diffTimeout bounds each incremental mining pass.
const diffTimeout = 30 * time.Second

// Config tunes a Manager.
type Config struct {
	// MaxSubscriptions caps live subscriptions across all datasets
	// (default 1024).
	MaxSubscriptions int
	// EventBuffer is each subscription's ring capacity in events
	// (default 256). A consumer that falls this far behind is evicted.
	EventBuffer int
	// Metrics receives the manager's metrics; nil uses a private
	// registry.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxSubscriptions <= 0 {
		c.MaxSubscriptions = 1024
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// tracker is the shared state for one (dataset, canonical query) pair:
// the baseline rule set all diffs are computed against, and the
// subscriptions that receive them. Its mutex also guards each member
// subscription's ring (see Subscription).
type tracker struct {
	dataset   string
	canonical string
	query     colarm.Query

	mu sync.Mutex
	// gen and ver locate the baseline on the (generation, version)
	// timeline of the *last emitted event* — they advance only when an
	// event is appended, so diff intervals tile exactly.
	gen   uint64
	ver   uint64
	rules []colarm.Rule
	subs  []*Subscription
}

// snapshotEventLocked builds a snapshot event from the baseline; the
// caller holds t.mu. The rules slice is shared — the worker replaces
// the baseline wholesale and never mutates it in place.
func (t *tracker) snapshotEventLocked(s *Subscription) Event {
	return Event{
		Type:        EventSnapshot,
		Dataset:     s.dataset,
		Generation:  t.gen,
		FromVersion: t.ver,
		ToVersion:   t.ver,
		Rules:       t.rules,
	}
}

// attachment is the manager's hold on one dataset's current engine.
type attachment struct {
	eng    *colarm.Engine
	cancel func()
}

// pendingNotice coalesces apply notices for one dataset between worker
// passes: the covered version interval, the changed rows (capped), and
// whether an engine swap (epoch) or cap overflow forces every tracker
// to re-diff.
type pendingNotice struct {
	eng     *colarm.Engine
	notices []colarm.ApplyNotice
	// full means the notice cap overflowed: treat every tracker as
	// affected rather than keep unbounded row sets.
	full bool
	// epoch means the engine was swapped (background rebuild): every
	// tracker re-baselines on the new engine and emits an epoch event.
	epoch bool
	// verify lists newly created trackers that must be re-diffed once
	// regardless of affectedness, closing the race between baseline
	// mining and tracker registration.
	verify []*tracker
}

// maxPendingNotices bounds the per-dataset coalesced notice list; past
// this the batch degrades to full (affects-everything) semantics.
const maxPendingNotices = 256

// Manager owns standing-query subscriptions over one or more attached
// engines. One background worker serializes all diff mining; apply
// notices are coalesced per dataset while it is busy, so ingestion is
// never blocked by subscriber work beyond a map insert.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	busy     bool
	nextID   uint64
	engines  map[string]*attachment
	trackers map[string]*tracker // key: dataset + "\x00" + canonical
	subs     map[string]*Subscription
	pending  map[string]*pendingNotice // by dataset
	wake     chan struct{}
	done     chan struct{}

	active      *obs.Gauge
	diffSeconds *obs.Histogram
	events      map[string]*obs.Counter // by event type
	drops       *obs.Counter
	evictions   *obs.Counter
	skips       *obs.Counter
	diffErrors  *obs.Counter

	// passFault, when set, is called by each tracker pass before it
	// mines. Test hook: tests panic in it.
	passFault func()
}

// NewManager creates a Manager and starts its diff worker. Call Close
// to stop it.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	m := &Manager{
		cfg:      cfg,
		engines:  make(map[string]*attachment),
		trackers: make(map[string]*tracker),
		subs:     make(map[string]*Subscription),
		pending:  make(map[string]*pendingNotice),
		wake:     make(chan struct{}),
		done:     make(chan struct{}),

		active: reg.Gauge("colarm_subscriptions_active",
			"Live standing-query subscriptions."),
		diffSeconds: reg.Histogram("colarm_rule_diff_seconds", "",
			"Latency of incremental rule-set diff passes.", nil),
		events: map[string]*obs.Counter{},
		drops: reg.Counter("colarm_subscription_queue_dropped_total",
			"Events dropped from full subscription ring buffers."),
		evictions: reg.Counter("colarm_subscription_evictions_total",
			"Consumers evicted for falling behind their event buffer."),
		skips: reg.Counter("colarm_rule_diff_skipped_total",
			"Apply batches skipped by the affectedness gate without mining."),
		diffErrors: reg.Counter("colarm_rule_diff_errors_total",
			"Incremental diff passes that failed (retried on the next affecting batch)."),
	}
	for _, typ := range []string{EventSnapshot, EventDiff, EventEpoch, EventEvicted} {
		m.events[typ] = reg.CounterWith("colarm_subscription_events_total",
			`type="`+typ+`"`, "Standing-query events delivered to subscription buffers, by type.")
	}
	go m.run()
	return m
}

// Attach registers (or replaces) the engine serving dataset name and
// hooks its apply-notice stream. Replacing an engine — the background
// rebuild path — enqueues an epoch: every tracker on the dataset
// re-baselines against the new engine and emits an epoch event
// re-anchoring the version clock (with an empty diff when the rebuild
// preserved exactness, as it should).
func (m *Manager) Attach(dataset string, eng *colarm.Engine) {
	cancel := eng.Subscribe(func(n colarm.ApplyNotice) {
		m.enqueue(dataset, eng, func(p *pendingNotice) {
			if p.full || len(p.notices) >= maxPendingNotices {
				p.full = true
				p.notices = nil
				return
			}
			p.notices = append(p.notices, n)
		})
	})
	m.mu.Lock()
	old := m.engines[dataset]
	m.engines[dataset] = &attachment{eng: eng, cancel: cancel}
	m.mu.Unlock()
	if old != nil {
		old.cancel()
		m.enqueue(dataset, eng, func(p *pendingNotice) { p.epoch = true })
	}
}

// enqueue merges a change into the dataset's pending notice and wakes
// the worker. It is the apply-observer fast path: a map insert under
// the manager lock, nothing more.
func (m *Manager) enqueue(dataset string, eng *colarm.Engine, merge func(*pendingNotice)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	p := m.pending[dataset]
	if p == nil || p.eng != eng {
		// First notice, or a notice from a newer engine: reset onto the
		// current engine (stale pre-swap notices are subsumed by the
		// epoch re-diff).
		np := &pendingNotice{eng: eng}
		if p != nil {
			np.epoch = p.epoch
			np.verify = p.verify
		}
		p = np
		m.pending[dataset] = p
	}
	merge(p)
	close(m.wake)
	m.wake = make(chan struct{})
}

// run is the diff worker: it drains pending notices one dataset at a
// time, re-mining affected trackers and appending events. A pass that
// panics counts as a failed diff, like one that returns an error: the
// tracker keeps its baseline and the worker goes on.
func (m *Manager) run() {
	for {
		m.mu.Lock()
		var ds string
		var p *pendingNotice
		for k, v := range m.pending {
			ds, p = k, v
			delete(m.pending, k)
			break
		}
		if p == nil {
			m.busy = false
			if m.closed {
				m.mu.Unlock()
				close(m.done)
				return
			}
			wake := m.wake
			m.mu.Unlock()
			<-wake
			continue
		}
		m.busy = true
		var ts []*tracker
		for _, t := range m.trackers {
			if t.dataset == ds {
				ts = append(ts, t)
			}
		}
		m.mu.Unlock()
		// Deterministic order keeps event interleavings reproducible in
		// tests and spreads no tracker systematically last.
		sort.Slice(ts, func(i, j int) bool { return ts[i].canonical < ts[j].canonical })
		for _, t := range ts {
			if err := pool.Catch(func() { m.diffTracker(t, p) }); err != nil {
				m.diffErrors.Inc()
			}
		}
	}
}

// diffTracker re-mines one tracker against an applied batch if the
// affectedness gate says the batch can have changed its rule set, and
// appends the resulting event to every member subscription.
func (m *Manager) diffTracker(t *tracker, p *pendingNotice) {
	affected := p.full || p.epoch
	if !affected {
		for _, tv := range p.verify {
			if tv == t {
				affected = true
				break
			}
		}
	}
	if !affected {
		for _, n := range p.notices {
			ok, err := n.Affects(t.query)
			if err != nil || ok {
				// Validation errors (e.g. after a schema-changing swap)
				// degrade conservatively to "affected"; the diff pass
				// will surface the real error.
				affected = true
				break
			}
		}
	}
	if !affected {
		m.skips.Inc()
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), diffTimeout)
	defer cancel()
	start := time.Now()
	t.mu.Lock()
	baseline := t.rules
	t.mu.Unlock()
	if m.passFault != nil {
		m.passFault()
	}
	diff, err := p.eng.RuleDiff(ctx, t.query, baseline)
	m.diffSeconds.Observe(time.Since(start))
	if err != nil {
		// Leave the baseline untouched: the next affecting batch (or
		// epoch) retries from the same anchor, so no change is lost.
		m.diffErrors.Inc()
		return
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if !baselineIs(t.rules, baseline) {
		// Another pass replaced the baseline while we mined (possible
		// only across epochs today, but cheap to guard): drop this
		// stale diff; the batch that won also covered our interval.
		return
	}
	emit := !diff.Empty() || p.epoch
	if !emit {
		// Affected but bit-identical (e.g. an insert and delete that
		// cancel out): no event; the next diff's interval covers this
		// batch too.
		return
	}
	typ := EventDiff
	if p.epoch {
		typ = EventEpoch
	}
	base := Event{
		Type:        typ,
		Dataset:     t.dataset,
		Generation:  diff.Generation,
		FromVersion: t.ver,
		ToVersion:   diff.Version,
		Appeared:    diff.Appeared,
		Disappeared: diff.Disappeared,
		Updated:     diff.Updated,
	}
	var prev map[string]colarm.Rule
	for _, s := range t.subs {
		ev := base
		if s.track != nil {
			if prev == nil {
				prev = make(map[string]colarm.Rule, len(t.rules))
				for _, r := range t.rules {
					prev[colarm.RuleKey(r)] = r
				}
			}
			ev.Crossed = crossings(*s.track, prev, diff)
		}
		m.drops.Add(int64(s.append(ev)))
		m.events[typ].Inc()
	}
	t.rules = diff.Rules
	t.gen = diff.Generation
	t.ver = diff.Version
}

// baselineIs reports whether cur is the same slice the diff was
// computed against (identity, not deep equality).
func baselineIs(cur, base []colarm.Rule) bool {
	if len(cur) != len(base) {
		return false
	}
	return len(cur) == 0 || &cur[0] == &base[0]
}

// crossings finds rules that persisted across the diff while their
// tracked measure moved from one side of the threshold to the other.
// (A rule appearing already above the threshold is visible in Appeared;
// crossings report movement, not membership.)
func crossings(tr Track, prev map[string]colarm.Rule, diff *colarm.RuleSetDiff) []Crossing {
	var out []Crossing
	for _, r := range diff.Updated {
		p, ok := prev[colarm.RuleKey(r)]
		if !ok {
			continue
		}
		pv := measureValue(p, tr.Measure)
		cv := measureValue(r, tr.Measure)
		var dir string
		switch {
		case pv < tr.Threshold && cv >= tr.Threshold:
			dir = "above"
		case pv >= tr.Threshold && cv < tr.Threshold:
			dir = "below"
		default:
			continue
		}
		out = append(out, Crossing{
			Rule: r, Measure: tr.Measure, Threshold: tr.Threshold,
			Direction: dir, Previous: pv, Current: cv,
		})
	}
	return out
}

// Create registers a subscription for q on the named dataset. The
// first subscription for a given canonical query mines the initial
// baseline synchronously; later subscribers share the existing tracker
// and receive its current baseline. The subscription's first event
// (sequence 1) is a snapshot.
func (m *Manager) Create(ctx context.Context, dataset string, q colarm.Query, track *Track) (*Subscription, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if track != nil && !trackMeasures[track.Measure] {
		return nil, fmt.Errorf("%w %q", ErrBadTrack, track.Measure)
	}
	key := dataset + "\x00" + q.Canonical()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.subs) >= m.cfg.MaxSubscriptions {
		m.mu.Unlock()
		return nil, ErrLimit
	}
	att := m.engines[dataset]
	if att == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrNoDataset, dataset)
	}
	if t := m.trackers[key]; t != nil {
		s := m.newSubscriptionLocked(t, q, track)
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()

	// Mine the initial baseline outside the manager lock (it can take
	// a while and must not stall the notice fast path).
	dctx, cancel := context.WithTimeout(ctx, diffTimeout)
	start := time.Now()
	diff, err := att.eng.RuleDiff(dctx, q, nil)
	m.diffSeconds.Observe(time.Since(start))
	cancel()
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.subs) >= m.cfg.MaxSubscriptions {
		m.mu.Unlock()
		return nil, ErrLimit
	}
	t := m.trackers[key]
	if t == nil {
		t = &tracker{
			dataset:   dataset,
			canonical: q.Canonical(),
			query:     q,
			gen:       diff.Generation,
			ver:       diff.Version,
			rules:     diff.Rules,
		}
		m.trackers[key] = t
		// Close the registration race: a batch applied after the
		// baseline mine but processed before the tracker existed would
		// be lost, so force one unconditional re-diff. If nothing
		// slipped in, the diff is empty and no event is emitted.
		p := m.pending[dataset]
		if p == nil {
			p = &pendingNotice{eng: att.eng}
			m.pending[dataset] = p
		}
		p.verify = append(p.verify, t)
		close(m.wake)
		m.wake = make(chan struct{})
	}
	s := m.newSubscriptionLocked(t, q, track)
	m.mu.Unlock()
	return s, nil
}

// newSubscriptionLocked attaches a new subscription to t and seeds its
// ring with a snapshot event; the caller holds m.mu.
func (m *Manager) newSubscriptionLocked(t *tracker, q colarm.Query, track *Track) *Subscription {
	m.nextID++
	s := &Subscription{
		id:       fmt.Sprintf("sub-%d", m.nextID),
		dataset:  t.dataset,
		query:    q,
		track:    track,
		t:        t,
		m:        m,
		buf:      make([]Event, m.cfg.EventBuffer),
		firstSeq: 1,
		nextSeq:  1,
		wake:     make(chan struct{}),
	}
	m.subs[s.id] = s
	t.mu.Lock()
	t.subs = append(t.subs, s)
	s.append(t.snapshotEventLocked(s))
	t.mu.Unlock()
	m.active.Inc()
	m.events[EventSnapshot].Inc()
	return s
}

// Get returns the subscription with the given id, or nil.
func (m *Manager) Get(id string) *Subscription {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.subs[id]
}

// List returns all live subscriptions, ordered by id.
func (m *Manager) List() []*Subscription {
	m.mu.Lock()
	out := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Delete removes a subscription, waking its consumers with ErrClosed
// (after they drain buffered events). The last subscription on a
// tracker retires the tracker — its baseline and affectedness checks
// stop costing anything. Reports whether the id existed.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.subs[id]
	if s == nil {
		return false
	}
	delete(m.subs, id)
	t := s.t
	t.mu.Lock()
	for i, o := range t.subs {
		if o == s {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	s.closeLocked()
	empty := len(t.subs) == 0
	t.mu.Unlock()
	if empty {
		delete(m.trackers, t.dataset+"\x00"+t.canonical)
	}
	m.active.Dec()
	return true
}

// Quiesce blocks until every enqueued apply notice has been fully
// processed (or ctx expires). It is a test and benchmark aid: after an
// Ingest returns and Quiesce succeeds, every event the batch implies
// has been appended to every subscription ring.
func (m *Manager) Quiesce(ctx context.Context) error {
	for {
		m.mu.Lock()
		idle := len(m.pending) == 0 && !m.busy
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close detaches every engine, closes every subscription, and stops
// the worker (waiting for any in-flight diff pass to finish).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	atts := make([]*attachment, 0, len(m.engines))
	for _, a := range m.engines {
		atts = append(atts, a)
	}
	for _, s := range m.subs {
		t := s.t
		t.mu.Lock()
		s.closeLocked()
		t.mu.Unlock()
	}
	m.pending = map[string]*pendingNotice{}
	close(m.wake)
	m.wake = make(chan struct{})
	m.mu.Unlock()
	for _, a := range atts {
		a.cancel()
	}
	<-m.done
}
