// Package shard labels a dataset's records with K hash-routed shards,
// each with its own version clock and staleness breakdown. A shard is a
// label, not a partition: the engine keeps one delta store, one surface
// and one execution path at every K, so queries, plans, estimates and
// snapshots never depend on K (DESIGN §13). The collection routes ingest
// batches, ticks shard clocks and reports per-shard drift.
package shard

// Router assigns record ids to shards by hash. Record ids are stable
// for the lifetime of one engine generation (base records keep their
// build-time ids, ingested rows extend the id space), so a record's
// shard never changes under a Collection; a rebuild compacts the ids and
// the fresh engine's Collection labels them anew.
type Router struct {
	k int
}

// NewRouter returns a router over k shards; k < 1 is clamped to 1.
func NewRouter(k int) *Router {
	if k < 1 {
		k = 1
	}
	return &Router{k: k}
}

// Shards returns the number of shards K.
func (r *Router) Shards() int { return r.k }

// Of returns the shard owning record id. The id is mixed through
// splitmix64 before the modulus so sequential ids spread evenly across
// shards regardless of K.
func (r *Router) Of(id int) int {
	return int(splitmix64(uint64(id)) % uint64(r.k))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
