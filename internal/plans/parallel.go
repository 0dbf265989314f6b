// Parallel execution layer for the mining operators.
//
// COLARM's online phase is embarrassingly parallel at two points: the
// per-candidate record-level support checks of ELIMINATE and the
// per-itemset rule generation of VERIFY. Both fan out across a bounded
// worker pool here. The design constraint is determinism: the parallel
// paths must produce byte-identical rule sets AND identical operator
// counters to the serial path, for every schedule, so that plan
// equivalence tests are oblivious to the worker count. The pool itself is
// internal/pool's For and ForCtx, whose returned worker count is what
// query traces record as an operator's fan-out.
//
// Determinism is achieved by structure, not by locking the serial
// algorithm:
//
//   - work items are indexed up front and results land in pre-sized
//     slices, so merge order equals submission order;
//   - the VERIFY oracle memo is a sharded map whose shards compute
//     under their lock, so each distinct itemset key is computed exactly
//     once — the OracleMisses/SupportChecks counters then equal the
//     number of distinct keys at every worker count;
//   - counters touched inside workers accumulate in atomics and are
//     folded into the query's Stats after the join.
package plans

import (
	"sync"
	"sync/atomic"

	"colarm/internal/pool"
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

// cacheShards sizes the sharded support memo. Shard collisions only
// serialize the (rare) concurrent computes of colliding keys; 64 shards
// keep that negligible at any realistic GOMAXPROCS.
const cacheShards = 64

type countShard struct {
	mu sync.Mutex
	m  map[string]int
}

// shardedCounts is the VERIFY oracle's memo, safe for concurrent
// workers.
type shardedCounts struct {
	shards [cacheShards]countShard
}

func newShardedCounts() *shardedCounts {
	sc := &shardedCounts{}
	for i := range sc.shards {
		sc.shards[i].m = make(map[string]int)
	}
	return sc
}

// get returns the memoized count for key, computing and storing it on a
// miss. The shard lock is held across compute, so every distinct key is
// computed exactly once and reports fresh=true to exactly one caller —
// the property that keeps the miss counters deterministic.
func (sc *shardedCounts) get(key string, compute func() int) (v int, fresh bool) {
	sh := &sc.shards[fnv32a(key)%cacheShards]
	sh.mu.Lock()
	if v, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		return v, false
	}
	v = compute()
	sh.m[key] = v
	sh.mu.Unlock()
	return v, true
}

// fnv32a is the 32-bit FNV-1a hash, inlined to avoid a hash.Hash32
// allocation per oracle probe.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// workers resolves the executor's worker-count knob: 0 (or negative)
// means one worker per logical CPU, 1 forces the serial path.
func (ex *Executor) workers() int {
	return pool.Workers(ex.Workers)
}
