// Parallel execution layer for the mining operators.
//
// COLARM's online phase is embarrassingly parallel at two points: the
// per-candidate record-level support checks of ELIMINATE and the
// per-itemset rule generation of VERIFY (and ARM's). Each fans out
// through pool.Run, which sizes itself from GOMAXPROCS and returns the
// width query traces record as the operator's fan-out, or a worker's
// panic as the query's error. The design constraint is determinism: the
// parallel paths must produce byte-identical rule sets AND identical
// operator counters to the serial path, for every schedule, so that
// plan equivalence tests are oblivious to the worker count.
//
// Determinism is achieved by structure, not by locking the serial
// algorithm:
//
//   - work items are indexed up front and results land in pre-sized
//     slices, so merge order equals submission order;
//   - the VERIFY oracle memo is keyed by the itemset's item words: a
//     64-bit hash (itemset.Set.Hash64) picks a shard and a slot of its
//     open-addressed table, and every hit compares the stored item run
//     exactly. Shards compute under their lock, so each distinct itemset
//     is computed exactly once — the OracleMisses/SupportChecks counters
//     then equal the number of distinct itemsets at every worker count;
//   - counters touched inside workers accumulate in atomics and are
//     folded into the query's Stats after the join.
package plans

import (
	"sync"
	"sync/atomic"

	"colarm/internal/itemset"
	"colarm/internal/rules"
)

// cancelPollStride is the cadence of the cancellation probes in the
// operators' serial loops: one non-blocking channel read every this many
// iterations. Small enough that a cancelled query aborts within a few
// candidates' worth of work, large enough to be invisible in profiles.
const cancelPollStride = 16

// counterTally accumulates the Stats counters workers touch; the sums
// are schedule-independent, keeping the reported counters identical to
// a serial run.
type counterTally struct {
	oracleCalls   int64
	oracleMisses  int64
	supportChecks int64
}

func (t *counterTally) addTo(st *Stats) {
	st.OracleCalls += int(atomic.LoadInt64(&t.oracleCalls))
	st.OracleMisses += int(atomic.LoadInt64(&t.oracleMisses))
	st.SupportChecks += int(atomic.LoadInt64(&t.supportChecks))
}

// cacheShardBits sizes the sharded support memo at 1<<cacheShardBits
// shards, picked by the top bits of an itemset's hash. Shard collisions
// only serialize the (rare) concurrent computes of colliding itemsets; 64
// shards keep that negligible at any realistic GOMAXPROCS.
const cacheShardBits = 6

// shardedCounts is the VERIFY oracle's memo, safe for concurrent
// workers. Its zero value is empty and ready to use.
type shardedCounts struct {
	shards [1 << cacheShardBits]countShard
	// sameHash makes every itemset hash to 0, so all of them share one
	// shard and one probe chain: tests use it to show that the exact
	// item comparison alone keeps colliding itemsets apart.
	sameHash bool
}

// countShard is an open-addressed table over a slab of entries, whose
// item runs are copied into one item slab: the IT-tree's exact-lookup
// idiom (flat.go), grown as itemsets arrive.
type countShard struct {
	mu    sync.Mutex
	tab   []int32 // entry index per slot, -1 empty; power-of-two size, load <= 1/2
	ents  []countEntry
	items []itemset.Item
}

type countEntry struct {
	hash   uint64
	off, n int32 // the itemset is items[off : off+n]
	count  int
}

// get returns the memoized count for x, computing and storing it on a
// miss. The shard lock is held across compute, so every distinct itemset
// is computed exactly once and reports fresh=true to exactly one caller —
// the property that keeps the miss counters deterministic. The unlock is
// deferred, so a compute that panics releases the shard and the workers
// waiting on it reach pool.Run's join. x is read only during the call: a
// miss copies its items into the shard.
func (sc *shardedCounts) get(x itemset.Set, compute func() int) (v int, fresh bool) {
	h := x.Hash64()
	if sc.sameHash {
		h = 0
	}
	sh := &sc.shards[h>>(64-cacheShardBits)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.lookup(h, x); ok {
		return v, false
	}
	v = compute()
	sh.insert(h, x, v)
	return v, true
}

// slot is the home slot of hash h in a table of mask+1 slots, taken from
// the bits below the shard bits, which FNV-1a's multiplications mix
// better than its low bits.
func slot(h, mask uint64) uint64 { return h >> (64 - cacheShardBits - 32) & mask }

func (sh *countShard) lookup(h uint64, x itemset.Set) (int, bool) {
	if len(sh.tab) == 0 {
		return 0, false
	}
	mask := uint64(len(sh.tab) - 1)
	for i := slot(h, mask); ; i = (i + 1) & mask {
		e := sh.tab[i]
		if e < 0 {
			return 0, false
		}
		en := &sh.ents[e]
		if en.hash == h && itemset.Set(sh.items[en.off:en.off+en.n]).Equal(x) {
			return en.count, true
		}
	}
}

func (sh *countShard) insert(h uint64, x itemset.Set, count int) {
	if 2*(len(sh.ents)+1) > len(sh.tab) {
		sh.tab = make([]int32, max(16, 2*len(sh.tab)))
		for i := range sh.tab {
			sh.tab[i] = -1
		}
		for e := range sh.ents {
			sh.place(sh.ents[e].hash, int32(e))
		}
	}
	sh.ents = append(sh.ents, countEntry{hash: h, off: int32(len(sh.items)), n: int32(len(x)), count: count})
	sh.items = append(sh.items, x...)
	sh.place(h, int32(len(sh.ents)-1))
}

// place puts entry e in the first empty slot of h's probe chain.
func (sh *countShard) place(h uint64, e int32) {
	mask := uint64(len(sh.tab) - 1)
	for i := slot(h, mask); ; i = (i + 1) & mask {
		if sh.tab[i] < 0 {
			sh.tab[i] = e
			return
		}
	}
}

// rulesIn counts the rules of per-item slots, so that the answer they
// are concatenated into is allocated once.
func rulesIn(per [][]rules.Rule) int {
	n := 0
	for _, rs := range per {
		n += len(rs)
	}
	return n
}
