package plans

import (
	"sync"
	"unsafe"

	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/rules"
)

// scratch is the memory of one request whose lifetime ends with the
// request: D^Q's layout, SEARCH's candidates, ELIMINATE's per-CFI state
// and lists, VERIFY's rule buffers and oracle memo, ARM's miner. Focus
// takes one from scratchPool for the Focal it builds, every plan run on
// that Focal draws its buffers from it, and Focal.Release hands it back
// once the caller has consumed the rules — which point into it. A Focal
// built without Focus gets a fresh one on first use, which the GC takes.
//
// Buffers are truncated or cleared for the next request and grow only
// when they are short, so a request whose sizes the pool has seen
// before allocates none of them.
type scratch struct {
	// slot and arena back the Focal's localVecs.
	slot  []vecSlot
	arena []uint64

	cands    []candidate   // SEARCH's candidates
	entries  []entry       // ELIMINATE's distinct bodies, candidate order
	checkIDs []int32       // ELIMINATE's scheduled record-level checks
	counts   []int         // their counts
	cfi      []int32       // ELIMINATE's per-CFI state (qctx.cfi)
	itemFreq []int8        // the item bound's memo (qctx.itemFreq)
	ids      idSet         // ELIMINATE's projection dedup, then VERIFY's kept ids
	quals    []qualified   // ELIMINATE's output
	chunks   []genChunk    // the last generate's chunk buffers, VERIFY's or ARM's
	ends     []int32       // where each itemset's rules end in its chunk
	rules    []rules.Rule  // the answer, in itemset order
	memo     shardedCounts // VERIFY's oracle memo

	// ARM.
	kept   []itemset.Item // SELECT's items
	views  [][]uint64     // their vectors
	mined  charm.Result   // CHARM's output and its recyclable miner
	closed []int32        // ids of the mined CFIs rules are generated from

	// The optimizer's record probe (ProbeBuffers): held is all zero
	// between probes.
	held       []uint64
	probeItems []int32

	// ran is set once a plan run drew from this scratch; see runScratch.
	ran bool
}

// scratchPool recycles scratch between requests. It is a sync.Pool, not
// a free list: a collection empties it, so an idle engine's live heap —
// which the benchmark reads after forced collections — holds no scratch.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch caps, in bytes, a scratch that goes back to the pool:
// the buffers of one exploding answer are left to the GC rather than
// pinned for every later request. The benchmark's corpora, at most
// 8 000 rules a reply, leave scratch of up to 4.7 MB.
const maxPooledScratch = 8 << 20

// scratch returns the request's recyclable memory: the set Focus took
// from the pool, or a fresh one for a Focal built by hand.
func (f *Focal) scratch() *scratch {
	if f.scr == nil {
		f.scr = new(scratch)
	}
	return f.scr
}

// runScratch returns the scratch a plan run on f draws from: the
// request's own for the first run. The run's Result points into it, so
// a later run on the same Focal — tests and benchmarks rerun plans that
// way — gets a fresh one, leaving the earlier Result intact.
func (f *Focal) runScratch() *scratch {
	sc := f.scratch()
	if sc.ran {
		return new(scratch)
	}
	sc.ran = true
	return sc
}

// ProbeBuffers lends the optimizer's record probe two buffers from the
// request's scratch: held, numItems words, all zero, which the probe
// must leave all zero again; and items, n entries of any contents.
// Serial callers only.
func (f *Focal) ProbeBuffers(numItems, n int) (held []uint64, items []int32) {
	sc := f.scratch()
	// Every word of held's capacity is zero: a fresh buffer is, and each
	// probe clears what it set.
	sc.held = reuse(sc.held, numItems)
	sc.probeItems = reuse(sc.probeItems, n)
	return sc.held, sc.probeItems
}

// Release hands the request's scratch back for a later request. Call it
// once every rule of every Result run on f has been consumed — those
// rules point into the scratch — and only after runs that succeeded: a
// failed, cancelled or panicked run leaves its scratch to the GC. f must
// not be used afterwards.
func (f *Focal) Release() {
	sc := f.scr
	if sc == nil {
		return
	}
	if f.vecs.slot != nil {
		sc.slot, sc.arena = f.vecs.slot, f.vecs.arena
	}
	f.scr, f.vecs = nil, localVecs{}
	if sc.bytes() > maxPooledScratch {
		return
	}
	// Their bodies point into an IT-tree's item slab: a pooled scratch
	// must not keep a retired index or merged view alive.
	clear(sc.entries)
	clear(sc.quals)
	sc.ran = false
	scratchPool.Put(sc)
}

// bytes is the scratch's footprint: the capacity of every buffer it
// keeps, the rule generation chunks' included.
func (sc *scratch) bytes() int {
	n := capBytes(sc.slot) + capBytes(sc.arena) + capBytes(sc.cands) + capBytes(sc.entries) +
		capBytes(sc.checkIDs) + capBytes(sc.counts) + capBytes(sc.cfi) + capBytes(sc.itemFreq) +
		capBytes(sc.ids) + capBytes(sc.quals) + capBytes(sc.chunks) + capBytes(sc.ends) +
		capBytes(sc.rules) + capBytes(sc.kept) + capBytes(sc.views) + capBytes(sc.closed) +
		capBytes(sc.held) + capBytes(sc.probeItems) + sc.memo.bytes()
	for _, ch := range sc.chunks[:cap(sc.chunks)] {
		n += capBytes(ch.rules) + capBytes(ch.items)
	}
	return n
}

// capBytes is the bytes buf's capacity holds.
func capBytes[T any](buf []T) int {
	var zero T
	return cap(buf) * int(unsafe.Sizeof(zero))
}

// reuse returns buf resized to n elements, reallocated only when its
// capacity is short. The contents are whatever buf held.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// idSet is a bitmap over CFI ids.
type idSet []uint64

// reset returns the set emptied and sized for ids below n.
func (s idSet) reset(n int) idSet {
	s = reuse(s, (n+63)/64)
	clear(s)
	return s
}

// add inserts id and reports whether it was absent.
func (s idSet) add(id int32) bool {
	w, b := id>>6, uint64(1)<<(id&63)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}
