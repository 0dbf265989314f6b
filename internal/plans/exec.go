package plans

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/itemset"
	"colarm/internal/obs"
	"colarm/internal/pool"
	"colarm/internal/qerr"
	"colarm/internal/rtree"
	"colarm/internal/rules"
)

// CheckMode selects how the record-level support checks of ELIMINATE
// and VERIFY are executed.
type CheckMode int

const (
	// AutoCheck picks per query whichever of the two implementations
	// is cheaper for the focal subset size (default).
	AutoCheck CheckMode = iota
	// ScanCheck probes each record id of D^Q against the itemset's
	// tidset — cost proportional to |D^Q|, exactly the record-level
	// scan the paper's cost model describes (COST(E) = |{I^Q_S}|·|D^Q|).
	ScanCheck
	// BitmapCheck intersects whole tidset bitmaps — cost proportional
	// to the dataset size in words, independent of |D^Q|.
	BitmapCheck
)

// Scans reports whether the record-level support checks over a focal
// subset of size records, out of a universe of records ids, probe the
// subset's ids one by one rather than intersect whole bitmaps.
// AutoCheck scans when |D^Q| <= m/32: a scan touches one word per
// subset record, a bitmap intersection every word of the universe once.
// The executor decides with it and the cost model prices with it.
func (m CheckMode) Scans(size, records int) bool {
	switch m {
	case ScanCheck:
		return true
	case BitmapCheck:
		return false
	default:
		return size <= records/32
	}
}

func (m CheckMode) String() string {
	switch m {
	case AutoCheck:
		return "auto"
	case ScanCheck:
		return "scan"
	case BitmapCheck:
		return "bitmap"
	default:
		return fmt.Sprintf("CheckMode(%d)", int(m))
	}
}

// Executor runs mining plans over Surfaces. It holds no index state of
// its own — only the item space every surface of one engine shares and
// the execution configuration — so one executor serves the engine's base
// index and its merged views alike.
//
// An Executor is safe for concurrent use by multiple goroutines: Run
// keeps all per-query state in a fresh context, and a Surface is
// immutable. The exported fields are configuration — set them before
// serving queries and do not modify them while calls are in flight.
type Executor struct {
	// Space maps attribute values to items for every surface the
	// executor is handed.
	Space *itemset.Space
	// Mode selects the record-level support check implementation.
	Mode CheckMode
	// Workers bounds the goroutines one query fans its ELIMINATE
	// support checks and VERIFY rule generation out to: 0 means one per
	// logical CPU (GOMAXPROCS), 1 forces the serial path. Results —
	// rules and operator counters alike — are identical for every
	// worker count.
	Workers int
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
	ex      *Executor
	q       *Query
	s       *Surface        // the index state the query reads
	f       *Focal          // the focal subset over s (shared, read-only)
	ctx     context.Context // the query's cancellation context
	done    <-chan struct{} // ctx.Done(), captured once (nil for Background)
	polls   int             // cancellation poll cadence counter
	mask    []bool          // item-attribute mask
	scan    bool            // resolved check mode for this query
	workers int             // resolved worker count for this query
	st      *Stats

	// Scan-mode id lists: the focal subset's record ids, and per shard
	// of a scattered query its share of them. Per-shard support counts
	// gathered by summation equal the monolithic counts exactly.
	dqIDs  []int
	dqsIDs [][]int

	// localSupp caches CFI id → local support count (record-level check
	// memoization across ELIMINATE's candidate occurrences).
	localSupp map[int]int
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
	c := &qctx{
		ex:        ex,
		q:         q,
		s:         f.Surface,
		f:         f,
		ctx:       ctx,
		done:      ctx.Done(),
		mask:      q.itemMask(ex.Space.NumAttrs()),
		workers:   ex.workers(),
		st:        &Stats{SubsetSize: f.Size, MinCount: f.MinCount},
		localSupp: make(map[int]int),
	}
	c.scan = ex.Mode.Scans(f.Size, c.s.NumRecords)
	if c.scan {
		c.dqIDs = f.DQ.IDs()
		if f.Shards != nil {
			c.dqsIDs = make([][]int, len(f.Shards))
			for s, dq := range f.Shards {
				c.dqsIDs[s] = dq.IDs()
			}
		}
	}
	return c
}

// countLocal is the record-level support check: how many records of the
// focal subset the tidset covers. In scan mode it probes each D^Q
// record id (cost ∝ |D^Q|, the paper's record-level scan); in bitmap
// mode it intersects whole bitmaps (cost ∝ dataset words).
func (c *qctx) countLocal(tids *bitset.Set) int {
	if c.scan {
		n := 0
		for _, id := range c.dqIDs {
			if tids.Contains(id) {
				n++
			}
		}
		return n
	}
	return bitset.AndCount(tids, c.f.DQ)
}

// countLocalShard is countLocal restricted to shard s's share of the
// focal subset. The per-shard subsets partition D^Q, so summing the
// results over all shards equals countLocal exactly.
func (c *qctx) countLocalShard(tids *bitset.Set, s int) int {
	if c.scan {
		n := 0
		for _, id := range c.dqsIDs[s] {
			if tids.Contains(id) {
				n++
			}
		}
		return n
	}
	return bitset.AndCount(tids, c.f.Shards[s])
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
	switch {
	case c.s.RTree == nil:
		// No packed tree covers a merged surface's boxes, so SEARCH is a
		// linear classification of them. The emitted candidate set is
		// identical to what a packed R-tree over the same boxes would
		// emit (both are exact); only the traversal cost differs, which
		// is exactly the staleness overhead the refresh policy charges
		// per query.
		st.EntriesChecked = len(c.s.Boxes)
		for id, box := range c.s.Boxes {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
			supp := c.s.Tree.Support(id)
			if supported && supp < c.f.MinCount {
				continue
			}
			rel := c.q.Region.Relation(box)
			if rel == itemset.Disjoint {
				continue
			}
			if !visit(rtree.Entry{Box: box, ID: int32(id), Support: int32(supp)}, rel) {
				break
			}
		}
	case supported:
		st = c.s.RTree.SupportedSearch(c.q.Region, c.f.MinCount, visit)
	default:
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
// projection; id is the CFI acting as that body's closure (carrying its
// tidset).
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
// The operator runs in three phases so the expensive middle one can fan
// out across the query's workers while the result stays byte-identical
// to a serial run: (1) a serial classification pass — item-attribute
// filtering, closure normalization, dedup — that schedules each CFI
// needing a record-level check exactly once; (2) the record-level
// support checks, executed in parallel into pre-indexed slots; (3) a
// serial minsupport filter in candidate order.
func (c *qctx) eliminate(cands []candidate, containedShortcut bool) ([]qualified, error) {
	tr := c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	shortcuts := 0 // contained MIPs resolved via Lemma 4.5, traced only
	sp := c.ex.Space
	seen := make(map[string]bool)
	type entry struct {
		id   int32
		body itemset.Set
	}
	entries := make([]entry, 0, len(cands))
	var checkIDs []int32 // CFI ids needing a record-level check, first-need order
	scheduled := make(map[int32]bool)
	for _, cd := range cands {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		body, all := c.s.Tree.Items(int(cd.id)).RestrictedTo(sp, c.mask)
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
			c.localSupp[int(cid)] = c.s.Tree.Support(int(cid))
			shortcuts++
		} else if _, done := c.localSupp[int(cid)]; !done && !scheduled[cid] {
			scheduled[cid] = true
			checkIDs = append(checkIDs, cid)
		}
		entries = append(entries, entry{id: cid, body: body})
	}

	// Record-level checks, fanned out. Each distinct CFI is checked once
	// (the serial path's memoization), so SupportChecks is identical for
	// every worker count. On a sharded engine the fan-out is finer —
	// one work item per (CFI, shard) pair — and the gather sums the
	// per-shard partial counts, which equals the monolithic check
	// because the shard subsets partition D^Q; SupportChecks still
	// counts logical checks (one per CFI), keeping the counters
	// byte-identical to the monolithic run.
	c.st.SupportChecks += len(checkIDs)
	counts := make([]int, len(checkIDs))
	var used int
	var err error
	if c.f.Shards != nil {
		k := len(c.f.Shards)
		partial := make([]int, len(checkIDs)*k)
		used, err = pool.ForCtx(c.ctx, len(partial), c.workers, func(j int) {
			partial[j] = c.countLocalShard(c.s.Tree.Tids(int(checkIDs[j/k])), j%k)
		})
		if err != nil {
			return nil, err
		}
		for i := range counts {
			n := 0
			for s := 0; s < k; s++ {
				n += partial[i*k+s]
			}
			counts[i] = n
		}
	} else {
		used, err = pool.ForCtx(c.ctx, len(checkIDs), c.workers, func(i int) {
			counts[i] = c.countLocal(c.s.Tree.Tids(int(checkIDs[i])))
		})
		if err != nil {
			return nil, err
		}
	}
	for i, id := range checkIDs {
		c.localSupp[int(id)] = counts[i]
	}

	// For SS-E-U-V the minsupport filter below is the UNION operator:
	// the stream of contained MIPs (resolved without a check) merges
	// with the checked partially-overlapped survivors. Trace it as its
	// own span there; otherwise it is part of ELIMINATE.
	var t1 time.Time
	if tr != nil && containedShortcut {
		t1 = time.Now()
		tr.Record(obs.OpEliminate, t1.Sub(t0), len(cands), len(entries), used,
			fmt.Sprintf("filtered=%d checks=%d shortcut=%d", c.st.ItemFiltered, len(checkIDs), shortcuts))
	}

	// Minsupport filter, in candidate order.
	var out []qualified
	for _, e := range entries {
		local := c.localSupp[int(e.id)]
		if local < c.f.MinCount {
			c.st.Eliminated++
			continue
		}
		out = append(out, qualified{id: e.id, body: e.body, local: local})
	}
	c.st.Qualified = len(out)
	if tr != nil {
		if containedShortcut {
			tr.Record(obs.OpUnion, time.Since(t1), len(entries), len(out), 1,
				fmt.Sprintf("eliminated=%d", c.st.Eliminated))
		} else {
			tr.Record(obs.OpEliminate, time.Since(t0), len(cands), len(out), used,
				fmt.Sprintf("filtered=%d checks=%d eliminated=%d",
					c.st.ItemFiltered, len(checkIDs), c.st.Eliminated))
		}
	}
	return out, nil
}

// countItems is the record-level support check of an arbitrary itemset
// within D^Q — the VERIFY oracle's compute step. The index already
// stores the tidset the count needs: t(X) = t(clos(X)), so supp_Q(X) =
// |D^Q ∩ t(clos(X))|. The closure is one IT-tree lookup; if ELIMINATE
// counted that CFI its local support is reused, otherwise the stored
// tidset takes the same record-level check ELIMINATE performs (scan or
// bitmap, summed over the shards of a scattered query). One stored
// tidset stands in for the C_X per-item tidsets of the paper's COST(V)
// record-level term (Σ C_i · |D^Q|); the per-record work is unchanged in
// kind and smaller in amount.
//
// x is a subset of a qualified body and hence of a stored CFI, so it is
// frequent at the surface's primary support and its closure is stored,
// whatever built the surface. Reads only the immutable surface, the
// request's focal subset and id lists and localSupp, which no one writes
// during VERIFY, so it is safe from concurrent workers.
func (c *qctx) countItems(x itemset.Set) int {
	id, ok := c.s.Tree.ClosureID(x)
	if !ok {
		panic(fmt.Sprintf("plans: no stored closure for %v, a subset of a qualified CFI", x))
	}
	if s, ok := c.localSupp[id]; ok {
		return s
	}
	tids := c.s.Tree.Tids(id)
	if c.f.Shards == nil {
		return c.countLocal(tids)
	}
	total := 0
	for s := range c.f.Shards {
		total += c.countLocalShard(tids, s)
	}
	return total
}

// oracle returns the serial local-support oracle VERIFY hands to the
// rule generator, memoized per itemset so repeated antecedents and
// singleton consequents are free.
func (c *qctx) oracle() rules.SupportOracle {
	cache := make(map[string]int)
	return func(x itemset.Set) int {
		c.st.OracleCalls++
		if len(x) == 0 {
			return -1
		}
		key := x.Key()
		if s, ok := cache[key]; ok {
			return s
		}
		c.st.OracleMisses++
		c.st.SupportChecks++
		s := c.countItems(x)
		cache[key] = s
		return s
	}
}

// sharedOracle is oracle's concurrent counterpart: the memo is sharded,
// each shard computes under its lock so every distinct itemset key is
// counted as exactly one miss/check — the same totals the serial memo
// reports — and the counters accumulate in the tally for a
// deterministic post-join fold into Stats.
func (c *qctx) sharedOracle(cache *shardedCounts, t *counterTally) rules.SupportOracle {
	return func(x itemset.Set) int {
		atomic.AddInt64(&t.oracleCalls, 1)
		if len(x) == 0 {
			return -1
		}
		s, fresh := cache.get(x.Key(), func() int { return c.countItems(x) })
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
// query's workers, each itemset's rules landing in its own slot; the
// slots are concatenated in qualification order, making the output
// (after the dedup that serial verify performs anyway) byte-identical
// to a serial run.
func (c *qctx) verify(quals []qualified) ([]rules.Rule, error) {
	tr := c.q.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	oc0, om0 := c.st.OracleCalls, c.st.OracleMisses
	used := 1
	var out []rules.Rule
	if c.workers <= 1 || len(quals) < 2 {
		oracle := c.oracle()
		for _, ql := range quals {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
			rs := rules.Generate(ql.body, ql.local, c.st.SubsetSize, c.q.MinConfidence,
				oracle, rules.Options{MaxConsequent: c.q.MaxConsequent})
			out = append(out, rs...)
		}
	} else {
		var tally counterTally
		oracle := c.sharedOracle(newShardedCounts(), &tally)
		per := make([][]rules.Rule, len(quals))
		var err error
		used, err = pool.ForCtx(c.ctx, len(quals), c.workers, func(i int) {
			per[i] = rules.Generate(quals[i].body, quals[i].local, c.st.SubsetSize,
				c.q.MinConfidence, oracle, rules.Options{MaxConsequent: c.q.MaxConsequent})
		})
		if err != nil {
			return nil, err
		}
		tally.addTo(c.st)
		for _, rs := range per {
			out = append(out, rs...)
		}
	}
	out = rules.Dedupe(out)
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
