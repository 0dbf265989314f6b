package plans

import (
	"context"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"colarm/internal/itemset"
	"colarm/internal/obs"
	"colarm/internal/pool"
	"colarm/internal/qerr"
	"colarm/internal/rtree"
	"colarm/internal/rules"
)

// Executor runs mining plans over Surfaces. It holds no index state of
// its own — only the item space every surface of one engine shares — so
// one executor serves the engine's base index and its merged views
// alike. A query's parallel sections fan out across GOMAXPROCS workers.
//
// An Executor is safe for concurrent use by multiple goroutines: Run
// keeps all per-query state in a fresh context, and a Surface is
// immutable.
type Executor struct {
	// Space maps attribute values to items for every surface the
	// executor is handed.
	Space *itemset.Space

	// noItemBound makes ELIMINATE schedule a record-level check for every
	// candidate, as it did before the item bound (itemsReach). Test hook.
	noItemBound bool
	// workerFault, when set, is called by every ELIMINATE and VERIFY
	// worker before item i. Test hook: tests panic in it.
	workerFault func(op obs.Op, i int)
}

// NewExecutor creates an executor for surfaces over the given item space.
func NewExecutor(sp *itemset.Space) *Executor { return &Executor{Space: sp} }

// Run validates the query, selects its focal subset over s and executes
// the chosen plan.
func (ex *Executor) Run(kind Kind, s *Surface, q *Query) (*Result, error) {
	if err := q.Validate(ex.Space); err != nil {
		return nil, err
	}
	return ex.RunContext(context.Background(), kind, ex.Focus(s, q), q)
}

// RunContext executes the query with the chosen plan over the surface
// and focal subset the caller resolved (see Focus), under a context.
// Cancellation is checked between operators and inside every operator's
// per-candidate loop (serial and parallel alike), so a cancelled or
// timed-out context aborts the query mid-ELIMINATE/VERIFY — including
// the ARM plan's from-scratch CHARM run — and returns ctx.Err() instead
// of running to completion. A query aborted by its context produces no
// partial result.
func (ex *Executor) RunContext(ctx context.Context, kind Kind, f *Focal, q *Query) (*Result, error) {
	if err := q.Validate(ex.Space); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	var res *Result
	var err error
	switch kind {
	case SEV, SVS, SSEV, SSVS, SSEUV:
		res, err = ex.runMIPPlan(ctx, kind, f, q)
	case ARM:
		res, err = ex.runARM(ctx, f, q)
	default:
		return nil, errUnknownKind(kind)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.Plan = kind
	res.Stats.Duration = time.Since(start)
	rules.SortCanonical(res.Rules)
	if q.Trace != nil {
		q.Trace.Label = kind.String()
		q.Trace.Total = res.Stats.Duration
	}
	return res, nil
}

type unknownKindError Kind

func (e unknownKindError) Error() string {
	name := Kind(e).String()
	if strings.HasPrefix(name, "Kind(") {
		// Out-of-range value with no printable name.
		return fmt.Sprintf("plans: unknown plan kind %d", int(e))
	}
	return fmt.Sprintf("plans: unknown plan kind %d (%s)", int(e), name)
}

// Unwrap makes errors.Is(err, qerr.ErrUnknownPlan) recognize the error.
func (e unknownKindError) Unwrap() error { return qerr.ErrUnknownPlan }

func errUnknownKind(k Kind) error { return unknownKindError(k) }

// qctx carries the per-query state shared by the operators. One qctx
// belongs to one Run call and is never shared across queries, so its
// maps need no locking; the parallel operator sections only share the
// immutable index state and write to disjoint, pre-indexed slots.
type qctx struct {
	ex    *Executor
	q     *Query
	s     *Surface        // the index state the query reads
	f     *Focal          // the focal subset over s (shared, read-only)
	ctx   context.Context // the query's cancellation context
	done  <-chan struct{} // ctx.Done(), captured once (nil for Background)
	polls int             // cancellation poll cadence counter
	mask  []bool          // item-attribute mask; nil without the clause
	st    *Stats

	// cfi is ELIMINATE's per-CFI state, indexed by CFI id (see cfiNone):
	// none, a scheduled record-level check, pruned by the item bound, or an
	// exact local support count. ELIMINATE writes it serially; VERIFY's
	// countItems only reads it. Nil until ELIMINATE runs.
	cfi []int32
	// itemFreq memoizes the item bound per item: 0 not yet counted, 1 the
	// item's local count reaches MinCount, -1 it does not. Nil until the
	// bound first runs.
	itemFreq []int8
}

// cancelled polls the query context every cancelPollStride calls (a
// non-blocking channel probe, cheap enough for the operators' serial
// per-candidate loops) and returns ctx.Err() once the context is done.
// With a Background context done is nil and the probe never fires.
func (c *qctx) cancelled() error {
	if c.done == nil {
		return nil
	}
	c.polls++
	if c.polls%cancelPollStride != 0 {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

func (ex *Executor) newCtx(ctx context.Context, f *Focal, q *Query) *qctx {
	return &qctx{
		ex:   ex,
		q:    q,
		s:    f.Surface,
		f:    f,
		ctx:  ctx,
		done: ctx.Done(),
		mask: q.ItemAttrs,
		st:   &Stats{SubsetSize: f.Size, MinCount: f.MinCount},
	}
}

// itemCount is item it's local count |D^Q ∩ t(it)|, ELIMINATE's item
// bound's record-level check per item: the count beside its vector in
// D^Q's layout, built here if the optimizer's sample did not build it.
// When the item's count over the whole surface is already below
// MinCount the check is skipped: that count — an upper bound on the
// local one, so also below MinCount — comes back with checked false.
// ARM's SELECT skips items the same way.
func (c *qctx) itemCount(it itemset.Item) (n int, checked bool) {
	if n = c.s.Tidsets[it].Count(); n < c.f.MinCount {
		return n, false
	}
	return c.f.vector(it), true
}

// itemsReach is ELIMINATE's item bound: whether every item of CFI id has
// a local count reaching MinCount. Support is anti-monotone, so a CFI
// holding an item below MinCount inside D^Q is below it too. Items are
// counted lazily, at most once per request, in order, up to the first
// one that falls short; every record-level check that runs adds to
// SupportChecks. Which items get counted depends on which candidates
// reach the bound, not on their order, so SupportChecks repeats on a
// rebuild whose R-tree emits the same candidates in another order.
func (c *qctx) itemsReach(id int) bool {
	if c.itemFreq == nil {
		c.itemFreq = make([]int8, len(c.s.Tidsets))
	}
	for _, it := range c.s.Tree.Items(id) {
		if c.itemFreq[it] == 0 {
			n, checked := c.itemCount(it)
			if checked {
				c.st.SupportChecks++
			}
			c.itemFreq[it] = 1
			if n < c.f.MinCount {
				c.itemFreq[it] = -1
			}
		}
		if c.itemFreq[it] < 0 {
			return false
		}
	}
	return true
}

// candidate is one MIP emitted by (SUPPORTED-)SEARCH.
type candidate struct {
	id  int32
	rel itemset.Rel
}

// search runs the SEARCH (supported=false) or SUPPORTED-SEARCH
// (supported=true) operator and classifies the overlapping MIPs.
func (c *qctx) search(supported bool) ([]candidate, error) {
	tr := c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var out []candidate
	var cancelErr error
	visit := func(e rtree.Entry, rel itemset.Rel) bool {
		if err := c.cancelled(); err != nil {
			cancelErr = err
			return false
		}
		out = append(out, candidate{id: e.ID, rel: rel})
		if rel == itemset.Contained {
			c.st.Contained++
		} else {
			c.st.PartialOverlap++
		}
		return true
	}
	var st rtree.SearchStats
	if supported {
		st = c.s.RTree.SupportedSearch(c.q.Region, c.f.MinCount, visit)
	} else {
		st = c.s.RTree.Search(c.q.Region, visit)
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	c.st.RNodesVisited += st.NodesVisited
	c.st.REntriesChecked += st.EntriesChecked
	c.st.Candidates = len(out)
	if tr != nil {
		op := obs.OpSearch
		if supported {
			op = obs.OpSupportedSearch
		}
		tr.Record(op, time.Since(t0), -1, len(out), 1,
			fmt.Sprintf("nodes=%d entries=%d contained=%d partial=%d",
				st.NodesVisited, st.EntriesChecked, c.st.Contained, c.st.PartialOverlap))
	}
	return out, nil
}

// qualified is a candidate rule body that passed the item-attribute
// filter and the local minsupport check. body is the candidate itemset
// projected onto the item attributes and normalized to its closure's
// projection; id is the CFI acting as that body's closure, which shares
// its local count.
type qualified struct {
	id    int32
	body  itemset.Set
	local int
}

// eliminate is the ELIMINATE operator: item-attribute filtering plus the
// record-level minsupport check for every candidate.
//
// Item-attribute semantics: a candidate CFI is projected onto the item
// attributes; the projection is normalized to the projection of its own
// closure (the "Aitem-closure"), so that the emitted rule bodies are
// exactly the closed itemsets of the item-attribute subspace that the
// index covers. When the ITEM ATTRIBUTES clause is absent the projection
// is the identity and candidates pass through unchanged. Projections of
// fewer than two items cannot form rules; they are dropped, and their
// Aitem-closures are still discovered through the closure CFI itself,
// which the search also emits (its box covers the projection's records).
//
// When containedShortcut is set (SS-E-U-V), MIPs whose bounding box is
// contained in D^Q take their global support as the local one
// (Lemma 4.5) without a record-level check.
//
// A serial classification pass — item-attribute filtering, closure
// normalization, dedup — settles each distinct CFI one of three ways: the
// contained shortcut above; the item bound (itemsReach), which prunes a
// CFI holding an item below MinCount inside D^Q, since its local support
// is below MinCount too; or one scheduled record-level check. The state
// lives in one slice indexed by CFI id (c.cfi). The serial pass then
// makes sure every item of the scheduled CFIs has a vector in D^Q's
// layout (Focal; with the item bound on, itemsReach already built them).
// The checks fan out across the query's workers into pre-indexed slots,
// each one the popcount of the AND of its CFI's item vectors, and a
// serial minsupport filter in candidate order counts pruned and failing
// candidates alike as Eliminated, so the result and every counter but
// SupportChecks match a run without the bound, at any worker count.
func (c *qctx) eliminate(cands []candidate, containedShortcut bool) ([]qualified, error) {
	tr := c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	shortcuts := 0 // contained MIPs resolved via Lemma 4.5, traced only
	pruned := 0    // CFIs settled by the item bound, traced only
	sp := c.ex.Space
	seen := make(map[string]bool)
	type entry struct {
		id   int32
		body itemset.Set
	}
	entries := make([]entry, 0, len(cands))
	var checkIDs []int32 // CFI ids needing a record-level check, first-need order
	c.cfi = make([]int32, c.s.Tree.Size())
	for _, cd := range cands {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		body, all := c.s.Tree.Items(int(cd.id)), true
		if c.mask != nil {
			body, all = body.RestrictedTo(sp, c.mask)
		}
		if len(body) < 2 {
			c.st.ItemFiltered++
			continue
		}
		cid := cd.id
		rel := cd.rel
		if !all {
			// Normalize the projection to its Aitem-closure.
			id, ok := c.s.Tree.ClosureID(body)
			if !ok {
				// Unreachable: a subset of a stored CFI is globally
				// frequent at the primary support by monotonicity.
				c.st.ItemFiltered++
				continue
			}
			cid = int32(id)
			body, _ = c.s.Tree.Items(id).RestrictedTo(sp, c.mask)
			if len(body) < 2 {
				c.st.ItemFiltered++
				continue
			}
			rel = c.q.Region.Relation(c.s.Boxes[id])
		}
		if !all {
			// Distinct CFIs are distinct bodies on the identity path;
			// only projections can collide.
			k := body.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if containedShortcut && rel == itemset.Contained {
			// Lemma 4.5: contained box ⇒ every supporting record lies in
			// D^Q, so the global support IS the local one. (A cid already
			// scheduled for a check keeps the check; both produce the
			// same value, so the counters stay order-faithful.)
			c.setLocal(cid, c.s.Tree.Support(int(cid)))
			shortcuts++
		} else if c.cfi[cid] == cfiNone {
			if c.ex.noItemBound || c.itemsReach(int(cid)) {
				c.cfi[cid] = cfiScheduled
				checkIDs = append(checkIDs, cid)
			} else {
				c.cfi[cid] = cfiPruned
				pruned++
			}
		}
		entries = append(entries, entry{id: cid, body: body})
	}

	// Record-level checks, fanned out over the local vectors. Each
	// distinct CFI is checked once, so SupportChecks is identical for
	// every worker count; a vector build is not a check.
	for _, id := range checkIDs {
		c.f.vectors(c.s.Tree.Items(int(id)))
	}
	// The trace's vecs= is the vectors D^Q's layout holds as the checks
	// fan out, the optimizer sample's and the item bound's included.
	vecs := c.f.vecs.built()
	c.st.SupportChecks += len(checkIDs)
	counts := make([]int, len(checkIDs))
	used, err := pool.Run(c.ctx, len(checkIDs), func(i int) {
		if c.ex.workerFault != nil {
			c.ex.workerFault(obs.OpEliminate, i)
		}
		counts[i] = c.f.vecs.count(c.s.Tree.Items(int(checkIDs[i])))
	})
	if err != nil {
		return nil, err
	}
	for i, id := range checkIDs {
		c.setLocal(id, counts[i])
	}

	// For SS-E-U-V the minsupport filter below is the UNION operator:
	// the stream of contained MIPs (resolved without a check) merges
	// with the checked partially-overlapped survivors. Trace it as its
	// own span there; otherwise it is part of ELIMINATE.
	var t1 time.Time
	if tr != nil && containedShortcut {
		t1 = time.Now()
		tr.Record(obs.OpEliminate, t1.Sub(t0), len(cands), len(entries), used,
			fmt.Sprintf("filtered=%d checks=%d vecs=%d pruned=%d shortcut=%d",
				c.st.ItemFiltered, len(checkIDs), vecs, pruned, shortcuts))
	}

	// Minsupport filter, in candidate order. A pruned id has no count.
	var out []qualified
	for _, e := range entries {
		local, counted := c.local(int(e.id))
		if !counted || local < c.f.MinCount {
			c.st.Eliminated++
			continue
		}
		out = append(out, qualified{id: e.id, body: e.body, local: local})
	}
	c.st.Qualified = len(out)
	if tr != nil {
		if containedShortcut {
			tr.Record(obs.OpUnion, time.Since(t1), len(entries), len(out), 1,
				fmt.Sprintf("pruned=%d eliminated=%d", pruned, c.st.Eliminated))
		} else {
			tr.Record(obs.OpEliminate, time.Since(t0), len(cands), len(out), used,
				fmt.Sprintf("filtered=%d checks=%d vecs=%d pruned=%d eliminated=%d",
					c.st.ItemFiltered, len(checkIDs), vecs, pruned, c.st.Eliminated))
		}
	}
	return out, nil
}

// ELIMINATE's per-CFI states in qctx.cfi. A positive value v is an exact
// local support count, v-1; the zero value is cfiNone, so the slice
// starts out settled for no one.
const (
	cfiNone      int32 = 0  // not met yet
	cfiScheduled int32 = -1 // a record-level check is scheduled
	cfiPruned    int32 = -2 // the item bound settled it: below MinCount
)

// setLocal records CFI id's exact local support count.
func (c *qctx) setLocal(id int32, n int) { c.cfi[id] = int32(n) + 1 }

// local returns CFI id's exact local support count, if ELIMINATE
// counted it or took it from the contained shortcut.
func (c *qctx) local(id int) (int, bool) {
	if v := c.cfi[id]; v > 0 {
		return int(v - 1), true
	}
	return 0, false
}

// localVecs is D^Q's vertical layout, owned by the request's Focal: one
// rank-space vector per item (bitset.RankAnd), bit r set when the r-th
// record of D^Q in ascending id order holds the item, all drawn from one
// arena, with the item's local count — the vector's popcount — beside
// it. Focal.vector grows it, appending to the arena, so a view of the
// arena is taken only after the last growth of a phase; count and view
// only read it and are safe from concurrent workers.
type localVecs struct {
	nw    int       // words per vector: ⌈|D^Q|/64⌉
	slot  []vecSlot // per item; nil until the first vector is built
	arena []uint64  // the vectors, nw words each
}

// vecSlot places one item's vector in the arena: off is its offset, -1
// while it has none, and n its local count.
type vecSlot struct{ off, n int32 }

// view returns item it's vector, which must have been built.
func (v *localVecs) view(it itemset.Item) []uint64 {
	o := int(v.slot[it].off)
	return v.arena[o : o+v.nw : o+v.nw]
}

// built returns how many items have a vector.
func (v *localVecs) built() int {
	if v.nw == 0 {
		return 0
	}
	return len(v.arena) / v.nw
}

// count is the record-level check of a non-empty itemset whose items
// all have vectors: |D^Q ∩ t(i₁) ∩ … ∩ t(i_k)|, the popcount of the AND
// of their vectors — |D^Q ∩ t(CFI)| for a CFI, whose tidset is its
// items' intersection. One item's count is the one stored beside its
// vector. The AND runs over a stack block of up to 64 words at a time,
// one item's vector after the other.
func (v *localVecs) count(items itemset.Set) int {
	if sl := v.slot[items[0]]; len(items) == 1 && sl.off >= 0 {
		return int(sl.n)
	}
	n := 0
	var block [64]uint64
	for lo := 0; lo < v.nw; lo += len(block) {
		acc := block[:min(len(block), v.nw-lo)]
		base := int(v.slot[items[0]].off) + lo
		copy(acc, v.arena[base:base+len(acc)])
		for _, it := range items[1:] {
			base := int(v.slot[it].off) + lo
			vec := v.arena[base : base+len(acc)]
			for w := range acc {
				acc[w] &= vec[w]
			}
		}
		for _, x := range acc {
			n += bits.OnesCount64(x)
		}
	}
	return n
}

// countItems is the record-level support check of an arbitrary itemset
// within D^Q — the VERIFY oracle's compute step. t(X) = t(clos(X)), so
// supp_Q(X) = |D^Q ∩ t(clos(X))|: the closure is one IT-tree lookup, and
// if ELIMINATE counted that CFI its local support is reused. Otherwise x
// is counted over D^Q's layout, since t(X) = ∩ t(i): the popcount of the
// AND of its items' vectors, C_X per-item vectors of ⌈|D^Q|/64⌉ words —
// the paper's COST(V) record-level term (Σ C_i · |D^Q|).
//
// x is a subset of a qualified body and hence of a stored CFI, so it is
// frequent at the surface's primary support and its closure is stored,
// whatever built the surface; verify built a vector for every item of
// every body before it fanned out. Reads only the immutable surface, the
// layout and ELIMINATE's per-CFI state, which no one writes during
// VERIFY, so it is safe from concurrent workers.
func (c *qctx) countItems(x itemset.Set) int {
	id, ok := c.s.Tree.ClosureID(x)
	if !ok {
		panic(fmt.Sprintf("plans: no stored closure for %v, a subset of a qualified CFI", x))
	}
	if s, ok := c.local(id); ok {
		return s
	}
	return c.f.vecs.count(x)
}

// sharedOracle returns the local-support oracle VERIFY hands to the rule
// generator, memoized per itemset (keyed by its item words) so repeated
// antecedents and singleton consequents are free. The memo is sharded
// and each shard computes under its lock, so every distinct itemset is
// counted as exactly one miss/check whatever the worker count, and the
// counters accumulate in the tally for a deterministic post-join fold
// into Stats.
func (c *qctx) sharedOracle(cache *shardedCounts, t *counterTally) rules.SupportOracle {
	return func(x itemset.Set) int {
		atomic.AddInt64(&t.oracleCalls, 1)
		if len(x) == 0 {
			return -1
		}
		s, fresh := cache.get(x, func() int { return c.countItems(x) })
		if fresh {
			atomic.AddInt64(&t.oracleMisses, 1)
			atomic.AddInt64(&t.supportChecks, 1)
		}
		return s
	}
}

// verify is the VERIFY operator: rule generation plus minconfidence
// checks for every qualified itemset. Itemsets are independent — the
// only coupling is the oracle memo — so generation fans out across the
// query's workers (at one worker, in the caller's goroutine), each
// itemset's rules landing in its own slot; the slots are concatenated in
// qualification order, so the output is the same at every worker count.
//
// A body is a function of its CFI id — Items(id), or its projection
// Items(id).RestrictedTo(mask) — and distinct ids have distinct bodies
// (a projected body's closure is the id it was normalized to). So only
// an id that qualified twice, once on ELIMINATE's identity path and once
// as a projection's closure, can repeat rules, and it repeats exactly
// the same ones: the concatenation keeps the first slot of each id.
// Every entry is still generated, so the oracle counters do not depend
// on which entries repeat.
//
// Before the fan-out, serially, every item of every body gets a vector
// in D^Q's layout, so the workers' closure misses (countItems) only read
// it.
func (c *qctx) verify(quals []qualified) ([]rules.Rule, error) {
	tr := c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	oc0, om0 := c.st.OracleCalls, c.st.OracleMisses
	// The workers only read the layout: every itemset the oracle counts
	// is a subset of a body, so the bodies' items are all it needs. A
	// contained CFI SS-E-U-V took without a check may have none yet.
	for _, ql := range quals {
		c.f.vectors(ql.body)
	}
	var tally counterTally
	oracle := c.sharedOracle(new(shardedCounts), &tally)
	per := make([][]rules.Rule, len(quals))
	used, err := pool.Run(c.ctx, len(quals), func(i int) {
		if c.ex.workerFault != nil {
			c.ex.workerFault(obs.OpVerify, i)
		}
		per[i] = rules.Generate(quals[i].body, quals[i].local, c.st.SubsetSize,
			c.q.MinConfidence, oracle, rules.Options{MaxConsequent: c.q.MaxConsequent})
	})
	if err != nil {
		return nil, err
	}
	tally.addTo(c.st)
	var out []rules.Rule
	if n := rulesIn(per); n > 0 {
		out = make([]rules.Rule, 0, n)
	}
	kept := make(map[int32]bool, len(quals))
	for i, rs := range per {
		if !kept[quals[i].id] {
			kept[quals[i].id] = true
			out = append(out, rs...)
		}
	}
	c.st.RulesEmitted = len(out)
	if tr != nil {
		tr.Record(obs.OpVerify, time.Since(t0), len(quals), len(out), used,
			fmt.Sprintf("oracle=%d misses=%d", c.st.OracleCalls-oc0, c.st.OracleMisses-om0))
	}
	return out, nil
}

// runMIPPlan executes the five MIP-index-based plans, which share the
// operator skeleton and differ in the SEARCH variant, the batching of
// the support check, and the contained-MIP shortcut.
func (ex *Executor) runMIPPlan(ctx context.Context, kind Kind, f *Focal, q *Query) (*Result, error) {
	c := ex.newCtx(ctx, f, q)
	if c.st.SubsetSize == 0 {
		return &Result{Stats: *c.st}, nil
	}
	supported := kind == SSEV || kind == SSVS || kind == SSEUV
	cands, err := c.search(supported)
	if err != nil {
		return nil, err
	}

	var quals []qualified
	switch kind {
	case SEV, SSEV:
		// Separate ELIMINATE pass, then VERIFY.
		quals, err = c.eliminate(cands, false)
	case SVS, SSVS:
		// SUPPORTED-VERIFY: the support check is interleaved with rule
		// generation; in this in-memory realization the work is the
		// same as ELIMINATE's, only unbatched (no separate candidate
		// list materialization).
		quals, err = c.eliminate(cands, false)
	case SSEUV:
		// Differential treatment: contained MIPs skip the record-level
		// check entirely and meet the partially overlapped survivors at
		// the UNION operator.
		quals, err = c.eliminate(cands, true)
	}
	if err != nil {
		return nil, err
	}
	rs, err := c.verify(quals)
	if err != nil {
		return nil, err
	}
	res := &Result{Rules: rs, Stats: *c.st}
	return res, nil
}
