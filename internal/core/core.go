// Package core assembles the COLARM framework (paper Figure 2): the
// offline preprocessing phase that builds the MIP-index and its
// statistics, and the online phase in which the cost-based optimizer
// picks one of the six mining plans and the executor runs it.
package core

import (
	"context"
	"fmt"
	"time"

	"colarm/internal/cost"
	"colarm/internal/delta"
	"colarm/internal/mip"
	"colarm/internal/obs"
	"colarm/internal/plans"
	"colarm/internal/qerr"
	"colarm/internal/relation"
	"colarm/internal/shard"
)

// Options configures engine construction.
type Options struct {
	// PrimarySupport is the offline primary support threshold in (0,1].
	PrimarySupport float64
	// CheckMode selects how the cost model prices a record-level
	// support check (AutoCheck, ScanCheck or BitmapCheck); every check
	// runs over the focal subset's rank-space vectors in every mode.
	// ScanCheck prices are proportional to the focal subset size,
	// matching the paper's cost model; AutoCheck (default) picks the
	// cheaper price per query.
	CheckMode plans.CheckMode
	// Workers bounds the goroutines one query fans its parallel
	// operator sections out to: 0 means one per logical CPU, 1 forces
	// serial execution. Results are identical for every setting.
	Workers int
	// Metrics, when non-nil, registers this engine's cumulative metrics
	// in a shared registry; nil gives the engine a private one. All
	// engine metrics are labeled with the dataset name, so engines
	// sharing a registry stay distinguishable (and same-dataset engines
	// aggregate).
	Metrics *obs.Registry
	// Shards labels the records with K hash-routed shards for ingest
	// routing, per-shard clocks and per-shard staleness (Engine.Coll).
	// Queries, estimates and snapshots do not depend on it; 0 or 1
	// keeps no labels.
	Shards int
}

// Engine is a ready-to-query COLARM instance over one dataset.
//
// An Engine is safe for concurrent use: Mine, MineWith, Explain,
// BuildQuery and Ingest may be called from any number of goroutines.
// The index is immutable after construction, the executor keeps all
// query state per-call, and the cost model's statistics are
// precomputed; post-build mutability lives entirely in the delta store,
// which synchronizes internally and hands queries immutable surfaces.
// Every request resolves its plans.Surface exactly once (see Resolve)
// and gates, chooses and executes against that one version. The only
// unsynchronized state is the configuration on the exported fields,
// which must not be mutated while queries are in flight.
type Engine struct {
	Index *mip.Index
	// Executor is the engine's one executor: it runs every plan over
	// whatever surface a request resolved — the base index or a merged
	// delta version.
	Executor *plans.Executor
	Model    *cost.Model
	// Delta buffers transactions ingested after the index build and
	// serves the surface of each delta version; queries stay exact while
	// the base index ages. Never nil, and built the same way at every
	// shard count.
	Delta *delta.Store
	// Coll labels the records with shards when Options.Shards is at
	// least 2: it routes ingest batches into Delta and reports per-shard
	// drift. nil on an engine without shards.
	Coll *shard.Collection

	// surface is Delta.Surface; tests wrap it to count or rig
	// resolutions.
	surface func() *plans.Surface

	// Metrics is the engine's cumulative metrics registry (counters and
	// latency histograms, Prometheus-renderable). Recording is atomic;
	// reading may happen concurrently with queries.
	Metrics *obs.Registry

	queries      *obs.Counter
	queryErrors  *obs.Counter
	rulesEmitted *obs.Counter
	latency      *obs.Histogram
	chosen       map[plans.Kind]*obs.Counter

	ingestBatches  *obs.Counter
	ingestRows     *obs.Counter
	ingestDeletes  *obs.Counter
	deltaQueries   *obs.Counter
	rebuilds       *obs.Counter
	rebuildSeconds *obs.Histogram

	opts Options
}

// NewEngine runs the offline phase over the dataset and wires up the
// online executor and optimizer. The R-tree gets the default fanout.
func NewEngine(d *relation.Dataset, opts Options) (*Engine, error) {
	return build(d, opts, 0)
}

// build is NewEngine at an explicit R-tree fanout (0 = the default).
func build(d *relation.Dataset, opts Options, fanout int) (*Engine, error) {
	idx, err := mip.Build(d, mip.Options{
		PrimarySupport: opts.PrimarySupport,
		Fanout:         fanout,
		Workers:        opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return Assemble(idx, opts), nil
}

// Assemble wires an online engine around an existing index (typically
// a deserialized snapshot), skipping the offline build.
// opts.PrimarySupport should carry the fraction the index was mined at
// so the delta store re-mines merged surfaces at the same threshold;
// when zero, an approximation is recovered from the stored primary
// count.
func Assemble(idx *mip.Index, opts Options) *Engine {
	ex := plans.NewExecutor(idx.Space)
	ex.Mode = opts.CheckMode
	ex.Workers = opts.Workers
	e := &Engine{Index: idx, Executor: ex, Model: cost.NewModel(idx), opts: opts}
	e.initDelta()
	e.initMetrics(opts.Metrics)
	return e
}

// initDelta gives the engine its delta store, and the shard collection
// routing into it when Options.Shards asks for one.
func (e *Engine) initDelta() {
	primary := e.opts.PrimarySupport
	if primary <= 0 && e.Index.Dataset.NumRecords() > 0 {
		// Assembled engines (deserialized snapshots) may not carry the
		// original fraction; recover it from the stored count so the
		// merged surface re-mines at the same threshold a rebuild would
		// use.
		primary = float64(e.Index.PrimaryCount) / float64(e.Index.Dataset.NumRecords())
	}
	e.Delta = delta.NewStore(e.Index, primary)
	e.Delta.SetWorkers(e.opts.Workers)
	e.surface = e.Delta.Surface
	if e.opts.Shards > 1 {
		e.Coll = shard.New(e.Delta, e.Index.Dataset.NumRecords(), e.opts.Shards)
	}
}

// initMetrics registers the engine's cumulative metrics in reg, or in a
// private registry when reg is nil. Every metric carries a dataset label
// so engines sharing one registry aggregate per dataset.
func (e *Engine) initMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.Metrics = reg
	labels := fmt.Sprintf("dataset=%q", e.Index.Dataset.Name)
	e.queries = reg.CounterWith("colarm_queries_total", labels,
		"Localized mining queries served (including failed ones).")
	e.queryErrors = reg.CounterWith("colarm_query_errors_total", labels,
		"Localized mining queries that failed.")
	e.rulesEmitted = reg.CounterWith("colarm_rules_emitted_total", labels,
		"Rules emitted across all queries.")
	e.latency = reg.Histogram("colarm_query_seconds", labels,
		"End-to-end query execution latency.", nil)
	e.chosen = make(map[plans.Kind]*obs.Counter, len(plans.Kinds()))
	for _, k := range plans.Kinds() {
		e.chosen[k] = reg.CounterWith("colarm_plan_chosen_total",
			labels+`,plan="`+k.String()+`"`,
			"Plans picked by the cost-based optimizer.")
	}
	e.ingestBatches = reg.CounterWith("colarm_ingest_batches_total", labels,
		"Ingest batches accepted into the delta store.")
	e.ingestRows = reg.CounterWith("colarm_ingest_rows_total", labels,
		"Records inserted through live ingestion.")
	e.ingestDeletes = reg.CounterWith("colarm_ingest_deletes_total", labels,
		"Records tombstoned through live ingestion.")
	e.deltaQueries = reg.CounterWith("colarm_delta_queries_total", labels,
		"Queries answered through the merged base+delta view.")
	e.rebuilds = reg.CounterWith("colarm_rebuilds_total", labels,
		"Full index rebuilds absorbing the delta store.")
	e.rebuildSeconds = reg.Histogram("colarm_rebuild_seconds", labels,
		"Duration of full index rebuilds.", nil)
}

// observe records one executed query in the cumulative metrics.
func (e *Engine) observe(res *plans.Result, err error) {
	e.queries.Inc()
	if err != nil {
		e.queryErrors.Inc()
		return
	}
	e.rulesEmitted.Add(int64(res.Stats.RulesEmitted))
	e.latency.Observe(res.Stats.Duration)
}

// noteDelta counts one successfully executed query whose resolved
// surface was a merged one.
func (e *Engine) noteDelta(f *plans.Focal, err error) {
	if err == nil && f.Surface.Version != 0 {
		e.deltaQueries.Inc()
	}
}

// Ingest buffers a batch of inserts and tombstone deletes in the delta
// store. Subsequent queries answer over the merged dataset exactly;
// the returned staleness reports the accumulated drift and whether the
// refresh policy now recommends a rebuild.
func (e *Engine) Ingest(rows [][]int32, deletes []int) (delta.Staleness, error) {
	st, err := e.Replay(rows, deletes)
	if err != nil {
		return st, err
	}
	e.ingestBatches.Inc()
	e.ingestRows.Add(int64(len(rows)))
	e.ingestDeletes.Add(int64(len(deletes)))
	return st, nil
}

// Replay is Ingest without the ingest metrics: it buffers the batch
// through the shard collection when there is one (so the shard clocks
// tick), straight into the store otherwise. Restoring a snapshot's
// persisted delta calls it, as that is not a fresh ingest.
func (e *Engine) Replay(rows [][]int32, deletes []int) (delta.Staleness, error) {
	if e.Coll != nil {
		return e.Coll.Ingest(rows, deletes)
	}
	return e.Delta.Ingest(rows, deletes)
}

// Staleness reports the engine's drift from the merged dataset.
func (e *Engine) Staleness() delta.Staleness { return e.Delta.Staleness() }

// ShardStats reports per-shard staleness; nil on an engine without
// shards.
func (e *Engine) ShardStats() []shard.ShardStat {
	if e.Coll == nil {
		return nil
	}
	return e.Coll.ShardStats()
}

// Rebuild runs the offline phase over the merged dataset — base records
// minus tombstones plus buffered inserts, ids compacted — and returns a
// fresh engine with an empty delta, the same Options and the same R-tree
// fanout (a sharded engine re-labels the fresh index), sharing this
// engine's metrics registry. The receiver is untouched and remains
// queryable throughout, so a serving layer can rebuild in the background
// and atomically swap engines when done.
func (e *Engine) Rebuild(ctx context.Context) (*Engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged, err := e.Delta.MergedDataset()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	opts := e.opts
	opts.Metrics = e.Metrics
	fresh, err := build(merged, opts, e.Index.RTree.Fanout())
	if err != nil {
		return nil, err
	}
	e.rebuilds.Inc()
	e.rebuildSeconds.Observe(time.Since(start))
	return fresh, nil
}

// Mine answers a localized mining query with the plan the COLARM
// optimizer selects; the estimates for all six plans are returned for
// inspection.
func (e *Engine) Mine(q *plans.Query) (*plans.Result, []cost.Estimate, error) {
	return e.MineContext(context.Background(), q)
}

// Resolve is the one place a request reads the engine's index state: it
// fetches the surface of the current delta version and selects the
// query's focal subset over it. Every entry point calls it exactly once
// and hands the result to the applicability gate, the optimizer and the
// executor, so a request gates, chooses and runs against a single
// version whatever is ingested meanwhile. q must have passed Validate.
func (e *Engine) Resolve(q *plans.Query) *plans.Focal {
	return e.Executor.Focus(e.surface(), q)
}

// MineContext is Mine under a context: a cancelled or timed-out context
// aborts the chosen plan mid-operator and returns ctx.Err().
func (e *Engine) MineContext(ctx context.Context, q *plans.Query) (*plans.Result, []cost.Estimate, error) {
	if err := q.Validate(e.Index.Space); err != nil {
		e.queries.Inc()
		e.queryErrors.Inc()
		return nil, nil, err
	}
	f := e.Resolve(q)
	ch := e.choose(q, f)
	e.chosen[ch.kind].Inc()
	res, err := e.Executor.RunContext(ctx, ch.kind, f, q)
	e.observe(res, err)
	e.noteDelta(f, err)
	if err != nil {
		return nil, ch.ests, err
	}
	if q.Trace != nil {
		predict(q.Trace, ch.est)
	}
	return res, ch.ests, nil
}

// planChoice is one resolved optimizer decision: the plan to run, the
// six estimates it was chosen from, and the running plan's own estimate.
type planChoice struct {
	kind plans.Kind
	ests []cost.Estimate
	est  cost.Estimate
}

// choose runs the cost-based optimizer against the surface and focal
// subset the request resolved. Its argmin is honored only when the
// prestored CFIs can answer the query completely (Focal.Applicable):
// when the localized threshold falls below the surface's primary-support
// count, every MIP-backed plan would silently drop rules that are
// frequent only inside the focal subset, so the choice is overridden to
// ARM — completeness outranks the cost estimate.
func (e *Engine) choose(q *plans.Query, f *plans.Focal) planChoice {
	kind, ests := e.Model.Choose(f, q)
	if kind != plans.ARM && !f.Applicable() {
		kind = plans.ARM
	}
	ch := planChoice{kind: kind, ests: ests}
	for _, est := range ests {
		if est.Plan == kind {
			ch.est = est
		}
	}
	return ch
}

// predict sets, on each traced span of an optimizer-chosen plan, the
// cost model's estimate for that operator: the executed plan's terms
// matched to the spans by operator name. UNION has no term and keeps 0.
func predict(tr *obs.Trace, est cost.Estimate) {
	for _, t := range est.Terms() {
		for i := range tr.Spans {
			if tr.Spans[i].Op.String() == t.Operator {
				tr.Spans[i].Predicted = t.Cost
			}
		}
	}
}

// MineWith bypasses the optimizer and executes a specific plan.
func (e *Engine) MineWith(kind plans.Kind, q *plans.Query) (*plans.Result, error) {
	return e.MineWithContext(context.Background(), kind, q)
}

// MineWithContext is MineWith under a context (see MineContext).
func (e *Engine) MineWithContext(ctx context.Context, kind plans.Kind, q *plans.Query) (*plans.Result, error) {
	if err := q.Validate(e.Index.Space); err != nil {
		e.observe(nil, err)
		return nil, err
	}
	f := e.Resolve(q)
	res, err := e.Executor.RunContext(ctx, kind, f, q)
	e.observe(res, err)
	e.noteDelta(f, err)
	return res, err
}

// Explain returns the optimizer's choice and per-plan estimates without
// executing anything.
func (e *Engine) Explain(q *plans.Query) (plans.Kind, []cost.Estimate, error) {
	return e.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain under a context. Cost estimation itself is
// a few statistics probes, so the context is only consulted at entry —
// an expired deadline still fails fast, matching MineContext.
func (e *Engine) ExplainContext(ctx context.Context, q *plans.Query) (plans.Kind, []cost.Estimate, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if err := q.Validate(e.Index.Space); err != nil {
		return 0, nil, err
	}
	ch := e.choose(q, e.Resolve(q))
	return ch.kind, ch.ests, nil
}

// QuerySpec is a plan-agnostic description of a mining request using
// dataset vocabulary (attribute names and value labels), as produced by
// the query-language parser or constructed directly by library users.
type QuerySpec struct {
	// Range maps attribute names to selected value labels (the WHERE
	// RANGE clause); attributes absent from the map span their domain.
	Range map[string][]string
	// ItemAttrs lists the attributes allowed in rule bodies (the ITEM
	// ATTRIBUTES clause); empty means all.
	ItemAttrs []string
	// MinSupport and MinConfidence are the HAVING thresholds.
	MinSupport    float64
	MinConfidence float64
	// MaxConsequent caps rule consequent length (0 = unlimited).
	MaxConsequent int
}

// BuildQuery resolves a QuerySpec against the engine's dataset into an
// executable query.
func (e *Engine) BuildQuery(spec *QuerySpec) (*plans.Query, error) {
	reg, err := e.Index.RegionFromSelections(spec.Range)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if len(spec.ItemAttrs) > 0 {
		mask = make([]bool, e.Index.Space.NumAttrs())
		for _, name := range spec.ItemAttrs {
			ai := e.Index.Dataset.AttrIndex(name)
			if ai < 0 {
				return nil, fmt.Errorf("core: %w: item attribute %q", qerr.ErrUnknownAttribute, name)
			}
			mask[ai] = true
		}
	}
	return &plans.Query{
		Region:        reg,
		ItemAttrs:     mask,
		MinSupport:    spec.MinSupport,
		MinConfidence: spec.MinConfidence,
		MaxConsequent: spec.MaxConsequent,
	}, nil
}
