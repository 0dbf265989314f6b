// Package colarm is a library for cost-based optimized localized
// association rule mining, reproducing the COLARM system of Mukherji,
// Rundensteiner and Ward (EDBT 2014).
//
// Classical rule miners discover global rules valid across an entire
// dataset. COLARM answers localized mining queries online: the analyst
// selects, at query time, a focal subset of the data (per-attribute
// value selections), the attributes allowed in rule bodies, and
// minimum support/confidence thresholds within that subset; the system
// returns the rules that hold locally — rules that are often invisible
// globally (Simpson's paradox).
//
// The library follows the preprocess-once-query-many paradigm. Open
// runs the offline phase: it mines the closed frequent itemsets at a
// primary support threshold (CHARM), stores them in a two-level
// MIP-index — a packed, support-annotated R-tree over the itemsets'
// multidimensional bounding boxes plus a closed IT-tree over the
// itemsets and their tidsets — and precomputes the statistics the cost
// model needs. Mine then answers each query with one of six execution
// plans (S-E-V, S-VS, SS-E-V, SS-VS, SS-E-U-V, or a from-scratch ARM
// baseline), chosen per query by the cost-based optimizer.
//
// Quickstart:
//
//	ds, _ := colarm.Salary()            // the paper's Table 1 dataset
//	eng, _ := colarm.Open(ds, colarm.Options{PrimarySupport: 0.18})
//	res, _ := eng.Mine(colarm.Query{
//	    Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
//	    ItemAttributes: []string{"Age", "Salary"},
//	    MinSupport:     0.70,
//	    MinConfidence:  0.95,
//	})
//	for _, r := range res.Rules {
//	    fmt.Println(r)
//	}
package colarm

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"colarm/internal/colarmql"
	"colarm/internal/cost"
	"colarm/internal/delta"
	"colarm/internal/mip"
	"colarm/internal/obs"
	"colarm/internal/plans"
	"colarm/internal/rules"
	"colarm/internal/wire"
)

// Plan identifies one of the six execution plans of the paper. Past
// Auto, a Plan is its plans.Kind plus one.
type Plan int

const (
	// Auto lets the cost-based optimizer choose (default).
	Auto Plan = iota
	// SEV is the basic SEARCH→ELIMINATE→VERIFY pipeline.
	SEV
	// SVS applies selection push-up (merged SUPPORTED-VERIFY).
	SVS
	// SSEV adds the supported R-tree filter.
	SSEV
	// SSVS combines the supported filter with selection push-up.
	SSVS
	// SSEUV adds differential treatment of contained vs partially
	// overlapped partitions.
	SSEUV
	// ARM is the traditional from-scratch mining baseline.
	ARM
)

// String returns the paper's plan name.
func (p Plan) String() string {
	if p == Auto {
		return "auto"
	}
	return plans.Kind(p - 1).String()
}

// ParsePlan resolves a plan name ("S-E-V", "ARM", "auto", ...).
func ParsePlan(s string) (Plan, error) {
	if strings.EqualFold(s, "auto") || s == "" {
		return Auto, nil
	}
	k, err := plans.ParseKind(s)
	if err != nil {
		return 0, err
	}
	return Plan(k + 1), nil
}

// MarshalText renders the plan by name, which makes the name a Plan's
// JSON form wherever one appears: the "plan" of a request body, of
// Stats and of a PlanEstimate.
func (p Plan) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText reads every spelling ParsePlan accepts; the empty name
// is Auto. An unknown name fails with ErrUnknownPlan.
func (p *Plan) UnmarshalText(name []byte) error {
	v, err := ParsePlan(string(name))
	if err == nil {
		*p = v
	}
	return err
}

// Options configures the offline preprocessing phase.
type Options struct {
	// PrimarySupport is the offline primary support threshold in
	// (0,1]: itemsets below it are not prestored and thus invisible to
	// queries (the POQM assumption).
	PrimarySupport float64
	// Metrics, when non-nil, registers this engine's cumulative metrics
	// in a shared registry instead of a private one. Every engine
	// metric carries a dataset label, so engines over different
	// datasets stay distinguishable in one exposition — the serving
	// layer opens all its engines against a single shared registry.
	Metrics *MetricsRegistry
	// Shards is read by nothing: an engine has one delta store and one
	// staleness, whatever it is set to.
	//
	// Deprecated: ignored.
	Shards int
}

// Query is one localized mining request: the paper's one query form,
// declared once. Its JSON form is the structured query of the HTTP API —
// the bodies of /v1/mine, /v1/explain and /v1/subscriptions embed a
// Query beside their "dataset" — so a field added here is a field of the
// wire.
type Query struct {
	// Range maps attribute names to the selected value labels,
	// defining the focal subset; attributes not listed span their
	// whole domain. Selections must align to the discretized values.
	Range map[string][]string `json:"range,omitempty"`
	// ItemAttributes lists the attributes allowed in rule bodies;
	// empty means all attributes.
	ItemAttributes []string `json:"itemAttributes,omitempty"`
	// MinSupport is the minimum rule support as a fraction of the
	// focal subset, in (0,1].
	MinSupport float64 `json:"minSupport,omitempty"`
	// MinConfidence is the minimum rule confidence in [0,1].
	MinConfidence float64 `json:"minConfidence,omitempty"`
	// MaxConsequent caps rule consequent length (0 = unlimited).
	MaxConsequent int `json:"maxConsequent,omitempty"`
	// Plan forces a specific execution plan; Auto uses the optimizer.
	Plan Plan `json:"plan,omitempty"`
	// Trace attaches a per-operator execution trace to the result
	// (Result.Trace). Tracing adds a few timestamp reads and one small
	// allocation per operator; untraced queries pay nothing. It says how
	// to report, not what to compute, so like Canonical the JSON form
	// leaves it out: /v1/mine takes "trace" as a request option beside
	// "timeout", and a standing query cannot be traced.
	Trace bool `json:"-"`
}

// Rule is one localized association rule with its interestingness
// measures. Counts are absolute within the focal subset. This is the
// only form a rule takes outside the engine: the executor's id-space
// rule gets its item labels here, once, and this struct — tags and all —
// is what /v1/mine replies and every standing-query event marshal.
type Rule struct {
	Antecedent []string `json:"antecedent"` // item labels "Attr=value"
	Consequent []string `json:"consequent"`

	Support    float64 `json:"support"` // fraction of the focal subset
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
	Cosine     float64 `json:"cosine"`
	Kulczynski float64 `json:"kulczynski"`

	SupportCount    int `json:"supportCount"`
	AntecedentCount int `json:"antecedentCount"`
	SubsetSize      int `json:"subsetSize"`
}

// String renders the rule as "(A=a, B=b) => (C=c) [supp=75.0% conf=100.0%]".
func (r Rule) String() string {
	return fmt.Sprintf("(%s) => (%s)  [supp=%.1f%% conf=%.1f%%]",
		strings.Join(r.Antecedent, ", "), strings.Join(r.Consequent, ", "),
		100*r.Support, 100*r.Confidence)
}

// PlanEstimate is the optimizer's cost prediction for one plan; its
// JSON form is an entry of the "estimates" of /v1/mine and /v1/explain.
type PlanEstimate struct {
	Plan       Plan    `json:"plan"`
	Cost       float64 `json:"cost"`       // model cost (nanosecond scale)
	Candidates float64 `json:"candidates"` // estimated candidate itemsets
	Qualified  float64 `json:"qualified"`  // estimated itemsets reaching rule generation
}

// Stats reports what one query execution did, mirroring the executor's
// operator-level counters so callers can see where a query's work went.
// It differs from the executor's own record in what a caller outside the
// engine needs: the plan by its public name, Auto included, and the
// duration as a nanosecond count. Marshalled, it is the "stats" object
// of a /v1/mine reply.
type Stats struct {
	Plan            Plan `json:"plan"`
	SubsetSize      int  `json:"subsetSize"`
	MinSupportCount int  `json:"minSupportCount"`

	// SEARCH / SUPPORTED-SEARCH.
	RNodesVisited   int `json:"rNodesVisited"`   // R-tree nodes touched
	REntriesChecked int `json:"rEntriesChecked"` // R-tree leaf entries tested
	Candidates      int `json:"candidates"`
	Contained       int `json:"contained"`
	PartialOverlap  int `json:"partialOverlap"`

	// ELIMINATE.
	ItemFiltered int `json:"itemFiltered"` // candidates dropped by the item-attribute filter
	// SupportChecks counts the record-level tidset∩D^Q counts performed:
	// one per distinct itemset ELIMINATE checks, one per item it counts to
	// skip checks (a candidate holding an item below the local threshold
	// cannot reach it), one per VERIFY oracle miss.
	SupportChecks int `json:"supportChecks"`
	// Eliminated counts the candidates failing local minsupport, whether
	// their own check or one of their items' counts showed it.
	Eliminated int `json:"eliminated"`
	Qualified  int `json:"qualified"` // itemsets reaching rule generation

	// VERIFY.
	OracleCalls  int `json:"oracleCalls"`  // antecedent/consequent support lookups
	OracleMisses int `json:"oracleMisses"` // lookups VERIFY counted afresh; always 0 for ARM
	RulesEmitted int `json:"rulesEmitted"`

	DurationNanos int64 `json:"durationNanos"`
}

// Result is the answer to a localized mining query. Marshalled, it is
// the "rules", "stats" and "estimates" of a /v1/mine reply, member for
// member; the server adds where the answer sits (dataset, generation,
// version, cached) and renders the trace with Trace.Tree.
type Result struct {
	Rules     []Rule         `json:"rules"`
	Stats     Stats          `json:"stats"`
	Estimates []PlanEstimate `json:"estimates,omitempty"` // present when the optimizer ran (Plan == Auto)
	Trace     *Trace         `json:"-"`                   // present when the query requested tracing
}

// Engine is a ready-to-query COLARM instance over one dataset: the
// MIP-index the offline phase built, and the online phase around it —
// the cost model, the executor that runs every plan, and the delta store
// that buffers live ingestion.
//
// An Engine is safe for concurrent use: the index is immutable after
// construction, the executor keeps all query state per call, the cost
// model's statistics are precomputed, and post-build mutability lives
// entirely in the delta store, which synchronizes internally and hands
// queries immutable surfaces. Every request reads the delta version
// exactly once and gates, chooses and executes against that version,
// whatever is ingested meanwhile.
type Engine struct {
	ds *Dataset
	// primary is the support fraction the index was mined at: the delta
	// store re-mines merged surfaces at it, Rebuild mines at it and Save
	// records it.
	primary float64
	gen     uint64

	idx      *mip.Index
	model    *cost.Model
	executor *plans.Executor
	// delta serves the surface of each delta version: the frozen index,
	// or a merged view once something was ingested. Never nil.
	delta *delta.Store
	// surface is delta.Surface; tests wrap it to count or rig
	// resolutions.
	surface func() (*plans.Surface, error)
	// labels quotes every item label of idx.Space for MineJSON.
	labels  *wire.Labels
	metrics engineMetrics
}

// Open runs the offline preprocessing phase over the dataset and
// returns a query-ready engine.
func Open(ds *Dataset, opts Options) (*Engine, error) {
	if ds == nil || ds.rel == nil {
		return nil, fmt.Errorf("colarm: nil dataset")
	}
	idx, err := mip.Build(ds.rel, mip.Options{PrimarySupport: opts.PrimarySupport})
	if err != nil {
		return nil, err
	}
	e := newEngine(idx, opts.PrimarySupport, opts.Metrics.registry())
	e.ds = ds
	return e, nil
}

// newEngine wires the online phase around an index mined at the
// fraction primary and registers the engine's metrics in reg (a private
// registry when nil).
func newEngine(idx *mip.Index, primary float64, reg *obs.Registry) *Engine {
	st := delta.NewStore(idx, primary)
	return &Engine{
		ds:       &Dataset{rel: idx.Dataset},
		primary:  primary,
		idx:      idx,
		model:    cost.NewModel(idx),
		executor: plans.NewExecutor(idx.Space),
		delta:    st,
		surface:  st.Surface,
		labels:   wire.NewLabels(idx.Space),
		metrics:  newEngineMetrics(reg, idx.Dataset.Name),
	}
}

// NumPartitions returns the number of prestored multidimensional
// itemset partitions (closed frequent itemsets).
func (e *Engine) NumPartitions() int { return e.idx.NumMIPs() }

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *Dataset { return e.ds }

// buildQuery resolves the public query against the engine's dataset
// vocabulary into an executable plans.Query.
func (e *Engine) buildQuery(q Query) (*plans.Query, error) {
	reg, err := e.idx.RegionFromSelections(q.Range)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if len(q.ItemAttributes) > 0 {
		mask = make([]bool, e.idx.Space.NumAttrs())
		for _, name := range q.ItemAttributes {
			ai := e.idx.Dataset.AttrIndex(name)
			if ai < 0 {
				return nil, fmt.Errorf("colarm: %w: item attribute %q", ErrUnknownAttribute, name)
			}
			mask[ai] = true
		}
	}
	return &plans.Query{
		Region:        reg,
		ItemAttrs:     mask,
		MinSupport:    q.MinSupport,
		MinConfidence: q.MinConfidence,
		MaxConsequent: q.MaxConsequent,
	}, nil
}

// resolve is the one place a request reads the engine's index state: it
// fetches the surface of the current delta version and selects the
// query's focal subset over it. Every request calls it exactly once and
// hands the result to the applicability gate, the optimizer and the
// executor, so it gates, chooses and runs against a single version. It
// fails only when the merged view of the version cannot be built.
// q must have passed Validate.
func (e *Engine) resolve(q *plans.Query) (*plans.Focal, error) {
	s, err := e.surface()
	if err != nil {
		return nil, err
	}
	return e.executor.Focus(s, q), nil
}

// Mine answers a localized mining query.
func (e *Engine) Mine(q Query) (*Result, error) {
	return e.MineContext(context.Background(), q)
}

// MineContext is Mine under a context: a cancelled or timed-out context
// aborts the query inside the executing operators — including the ARM
// plan's from-scratch CHARM run — and returns ctx.Err() (context.Canceled
// or context.DeadlineExceeded) instead of running to completion. An
// aborted query produces no partial result.
func (e *Engine) MineContext(ctx context.Context, q Query) (*Result, error) {
	var rules []Rule
	out, err := e.answer(ctx, q, func(res *plans.Result) error {
		rules = e.wrapRules(res.Rules)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rules = rules
	return out, nil
}

// MineJSON is MineContext for a caller that sends the rules on as JSON,
// as /v1/mine does: it appends to dst the bytes json.Marshal gives the
// rules MineContext would return — [] when there are none — and returns
// the extended slice with a Result whose Rules is nil. The rules are
// encoded from the executor's item ids with each label quoted once per
// engine, so no Rule and no label slice is built; dst grows at most
// once, to a bound on the encoding. On an error dst is returned as it
// came and no Result.
func (e *Engine) MineJSON(ctx context.Context, q Query, dst []byte) ([]byte, *Result, error) {
	b := dst
	out, err := e.answer(ctx, q, func(res *plans.Result) (err error) {
		if b, err = e.appendRules(b, res.Rules); err != nil {
			return fmt.Errorf("colarm: encoding rules: %w", err)
		}
		return nil
	})
	if err != nil {
		return dst, nil, err
	}
	return b, out, nil
}

// answer runs q and hands the executor's result to use while its rules,
// which point into the request's scratch, are valid; the scratch goes
// back for the next query right after. The Result carries the stats,
// the estimates of an Auto query and the trace, but no rules: use
// copies or encodes those.
func (e *Engine) answer(ctx context.Context, q Query, use func(*plans.Result) error) (*Result, error) {
	var tr *obs.Trace
	if q.Trace {
		tr = &obs.Trace{}
	}
	res, ests, f, err := e.mine(ctx, q, tr)
	if err != nil {
		return nil, err
	}
	err = use(res)
	f.Release()
	if err != nil {
		return nil, err
	}
	out := &Result{Stats: wrapStats(res.Stats)}
	if q.Plan == Auto {
		out.Estimates = planEstimates(ests)
	}
	out.Trace = newTrace(tr)
	return out, nil
}

// mine is the one path of a mining request, forced plan or Auto: build
// the executable query, resolve the surface once, on Auto let the gate
// and optimizer pick the plan (the estimates are returned), run it into
// tr, and count the query — one that fails to build, validate or
// resolve too. The result's rules point into the returned Focal's
// scratch, which the caller releases once it has copied or encoded
// them; a failed query's scratch is left to the GC.
func (e *Engine) mine(ctx context.Context, q Query, tr *obs.Trace) (*plans.Result, []cost.Estimate, *plans.Focal, error) {
	pq, err := e.buildQuery(q)
	if err == nil {
		err = pq.Validate(e.idx.Space)
	}
	var f *plans.Focal
	if err == nil {
		pq.Trace = tr
		f, err = e.resolve(pq)
	}
	if err != nil {
		e.metrics.observe(nil, nil, err)
		return nil, nil, nil, err
	}
	kind := plans.Kind(q.Plan - 1)
	var ch planChoice
	if q.Plan == Auto {
		ch = e.choose(pq, f)
		kind = ch.kind
		e.metrics.chosen[kind].Inc()
	}
	res, err := e.executor.RunContext(ctx, kind, f, pq)
	e.metrics.observe(f, res, err)
	if err != nil {
		return nil, nil, nil, err
	}
	if tr != nil && q.Plan == Auto {
		predict(tr, ch.est)
	}
	return res, ch.ests, f, nil
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
	kind, ests := e.model.Choose(f, q)
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

// Explain returns the optimizer's cost estimates for a query without
// executing it: one per plan, all six, in plan order. The plan Mine
// would run is the cheapest of them only when the query's localized
// support count reaches the index's primary count; below it the
// prestored itemsets cannot answer completely and Mine runs ARM whatever
// the estimates say.
func (e *Engine) Explain(q Query) ([]PlanEstimate, error) {
	return e.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain under a context; estimation is cheap, so
// the context is only consulted at entry (an expired deadline fails
// fast, matching MineContext).
func (e *Engine) ExplainContext(ctx context.Context, q Query) ([]PlanEstimate, error) {
	pq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := pq.Validate(e.idx.Space); err != nil {
		return nil, err
	}
	f, err := e.resolve(pq)
	if err != nil {
		return nil, err
	}
	ests := e.choose(pq, f).ests
	f.Release()
	return planEstimates(ests), nil
}

// UnitCosts are the cost model's five primitive unit costs in
// nanoseconds — WordOp (one 64-bit bitmap word operation), BoxRel (one
// box/region relation test), IDProbe (one record-id membership probe),
// MapOp (one hash-map operation) and GenOp (one rule-generation step).
// They are constants, the same for every engine on every machine. Its
// JSON tags are the wire names of api/openapi.yaml.
type UnitCosts = cost.Units

// UnitCosts returns the unit costs the optimizer prices every plan with.
func (e *Engine) UnitCosts() UnitCosts { return cost.UnitCosts() }

// planEstimates puts the model's estimates in the facade's terms: the
// plan by its public value, the total as the cost.
func planEstimates(ests []cost.Estimate) []PlanEstimate {
	out := make([]PlanEstimate, len(ests))
	for i, est := range ests {
		out[i] = PlanEstimate{Plan: Plan(est.Plan + 1), Cost: est.Total, Candidates: est.Candidates, Qualified: est.Qualified}
	}
	return out
}

// MineQL parses and executes a query written in the paper's query
// language:
//
//	REPORT LOCALIZED ASSOCIATION RULES
//	FROM salary
//	WHERE RANGE Location = (Seattle), Gender = (F)
//	AND ITEM ATTRIBUTES Age, Salary
//	HAVING minsupport = 70% AND minconfidence = 95%;
//
// The FROM clause must name this engine's dataset. An optional
// "USING PLAN <name>" clause forces a plan.
func (e *Engine) MineQL(src string) (*Result, error) {
	return e.MineQLContext(context.Background(), src)
}

// MineQLContext is MineQL under a context (see MineContext).
func (e *Engine) MineQLContext(ctx context.Context, src string) (*Result, error) {
	q, err := e.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return e.MineContext(ctx, q)
}

// ParseQL parses a query-language statement (see MineQL) without an
// engine: it returns the dataset the FROM clause names and the Query the
// rest describes, so a caller holding many engines — the HTTP server —
// parses a statement once, routes by the name and hands the Query on.
// Names and labels are checked when the Query reaches an engine.
func ParseQL(src string) (dataset string, q Query, err error) {
	st, err := colarmql.Parse(src)
	if err != nil {
		return "", Query{}, err
	}
	q = Query{
		Range:          make(map[string][]string, len(st.Range)),
		ItemAttributes: st.ItemAttrs,
		MinSupport:     st.MinSupport,
		MinConfidence:  st.MinConfidence,
	}
	for _, rc := range st.Range {
		q.Range[rc.Attr] = rc.Values
	}
	if q.Plan, err = ParsePlan(st.Plan); err != nil {
		return "", Query{}, err
	}
	return st.Dataset, q, nil
}

// ParseQuery is ParseQL for a statement meant for this engine: the FROM
// clause must name its dataset. The Query comes back unexecuted, so
// callers can adjust fields the language does not cover — Trace,
// MaxConsequent — before mining.
func (e *Engine) ParseQuery(src string) (Query, error) {
	dataset, q, err := ParseQL(src)
	if err != nil {
		return Query{}, err
	}
	if !strings.EqualFold(dataset, e.ds.rel.Name) {
		return Query{}, fmt.Errorf("colarm: query targets dataset %q, engine holds %q", dataset, e.ds.rel.Name)
	}
	return q, nil
}

// wrapStats puts the executor's counters in the facade's terms.
func wrapStats(st plans.Stats) Stats {
	return Stats{
		Plan:            Plan(st.Plan + 1),
		SubsetSize:      st.SubsetSize,
		MinSupportCount: st.MinCount,
		RNodesVisited:   st.RNodesVisited,
		REntriesChecked: st.REntriesChecked,
		Candidates:      st.Candidates,
		Contained:       st.Contained,
		PartialOverlap:  st.PartialOverlap,
		ItemFiltered:    st.ItemFiltered,
		SupportChecks:   st.SupportChecks,
		Eliminated:      st.Eliminated,
		Qualified:       st.Qualified,
		OracleCalls:     st.OracleCalls,
		OracleMisses:    st.OracleMisses,
		RulesEmitted:    st.RulesEmitted,
		DurationNanos:   st.Duration.Nanoseconds(),
	}
}

// wrapRules gives the executor's id-space rules their labels: the one
// place a rule becomes a Rule.
func (e *Engine) wrapRules(rs []rules.Rule) []Rule {
	if len(rs) == 0 {
		return nil
	}
	sp := e.idx.Space
	out := make([]Rule, 0, len(rs))
	for _, r := range rs {
		// One label slice per rule, antecedent then consequent. A
		// result-wide arena would let any rule a standing event keeps pin
		// every label of its result.
		a := len(r.Antecedent)
		labels := make([]string, a+len(r.Consequent))
		for j, it := range r.Antecedent {
			labels[j] = sp.Label(it)
		}
		for j, it := range r.Consequent {
			labels[a+j] = sp.Label(it)
		}
		out = append(out, wrapRule(r, labels[:a:a], labels[a:]))
	}
	return out
}

func wrapRule(r rules.Rule, ant, cons []string) Rule {
	return Rule{
		Antecedent:      ant,
		Consequent:      cons,
		Support:         r.Support,
		Confidence:      r.Confidence,
		Lift:            r.Lift(),
		Cosine:          r.Cosine(),
		Kulczynski:      r.Kulczynski(),
		SupportCount:    r.SupportCount,
		AntecedentCount: r.AntecedentCount,
		SubsetSize:      r.SubsetSize,
	}
}

// appendRules appends rs to b as MineJSON encodes them, growing b once
// to a bound on the encoding first.
func (e *Engine) appendRules(b []byte, rs []rules.Rule) ([]byte, error) {
	n := wire.ArrayBytes + len(rs)*wire.RuleBytes
	for i := range rs {
		n += e.labels.Bound(rs[i].Antecedent) + e.labels.Bound(rs[i].Consequent)
	}
	return wire.AppendRules(slices.Grow(b, n), idRules{rs, e.labels})
}

// idRules is the wire.Rules of the executor's id-space rules: each
// label is its item's quoted bytes, and the derived measures are
// computed as wrapRule computes them.
type idRules struct {
	rs     []rules.Rule
	labels *wire.Labels
}

func (r idRules) Len() int { return len(r.rs) }

func (r idRules) AppendLabels(b []byte, i int, consequent bool) []byte {
	if consequent {
		return r.labels.Append(b, r.rs[i].Consequent)
	}
	return r.labels.Append(b, r.rs[i].Antecedent)
}

func (r idRules) Measures(i int) wire.Measures {
	x := &r.rs[i]
	return wire.Measures{
		Support: x.Support, Confidence: x.Confidence, Lift: x.Lift(), Cosine: x.Cosine(), Kulczynski: x.Kulczynski(),
		SupportCount: x.SupportCount, AntecedentCount: x.AntecedentCount, SubsetSize: x.SubsetSize,
	}
}
