// Package shard partitions a dataset's records into K hash-partitioned
// shards, each with its own version clock and record slice over the
// shared MIP-index, and recombines per-shard partial results exactly:
// tidsets OR across shards (the slices partition the live records),
// support counts sum, confidences recompute from summed counts, and the
// closed-itemset catalog is re-established by a cross-shard closure
// merge (DESIGN §13). Plans see the partition only as the Slices of the
// plans.Surface a Collection hands out, so they stay partition-agnostic;
// K=1 reproduces the monolithic engine byte-for-byte.
package shard

// Router assigns record ids to shards by hash. Record ids are stable
// for the lifetime of an engine (base records keep their build-time
// ids, ingested rows extend the id space, and ids are never reused or
// renumbered — consolidation keeps deleted rows as ghosts), so a
// record's shard never changes.
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
