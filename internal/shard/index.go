package shard

import (
	"fmt"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/plans"
)

// ShardIndex is what the cross-shard closure merge keeps per shard: the
// shard's threshold-1 closed-set catalog, cache-keyed by the shard's
// version clock and the frequent-item universe it was mined over. A
// clean shard keeps serving its cached catalog across sibling ingests
// and consolidations; only drifted shards re-mine. No query searches a
// shard on its own — plans read the merged Surface — so no per-shard
// tree, boxes or R-tree exist.
//
// A ShardIndex is immutable once published.
type ShardIndex struct {
	// Shard is the shard number in [0, K).
	Shard int
	// Version is the shard clock value the catalog was mined at.
	Version uint64
	// UKey identifies the frequent-item universe the mining restricted
	// to (itemset.Set.Key of the universe).
	UKey string
	// Slice is the shard's record/tidset projection the catalog covers.
	Slice plans.ShardSlice
	// Mine is the shard's threshold-1 closed-set catalog over the
	// universe — the closure-merge input.
	Mine *charm.Result
	// BuildNanos is the wall-clock cost of mining this shard, for the
	// consolidation-pause accounting and /metrics.
	BuildNanos int64
}

// buildShardIndex mines one shard at threshold 1 over the universe.
// sl.Items carries the shard-restricted per-item tidsets; items outside
// the universe (inU false) are masked off so the threshold-1 enumeration
// stays bounded by 2^U.
func buildShardIndex(shard int, version uint64, ukey string, sl plans.ShardSlice, inU []bool, capN int) *ShardIndex {
	start := time.Now()
	tids := make([]*bitset.Set, len(sl.Items))
	for i, t := range sl.Items {
		if t != nil && inU[i] {
			tids[i] = t
		}
	}
	res, err := charm.MineTidsets(tids, capN, 1)
	if err != nil {
		// Unreachable: minCount 1 is the only error path.
		panic(fmt.Sprintf("shard: per-shard mining failed: %v", err))
	}
	return &ShardIndex{
		Shard:      shard,
		Version:    version,
		UKey:       ukey,
		Slice:      sl,
		Mine:       res,
		BuildNanos: time.Since(start).Nanoseconds(),
	}
}
