package rtree

import (
	"slices"
	"sort"
)

// LevelStats summarizes one level of the tree for the cost model
// (paper Table 3): the node count N_j and the average normalized extent
// of node boxes per dimension, DP_{j,i}avg. Level 0 is the root.
type LevelStats struct {
	Nodes     int
	AvgExtent []float64 // per dimension, fraction of the domain
	// Supports holds the sorted max-support values of the level's nodes,
	// enabling the SS-selectivity estimate "fraction of nodes whose
	// subtree can beat a support threshold".
	Supports []int32
}

// Stats computes per-level statistics. cards gives the domain
// cardinality of each dimension used for extent normalization.
func (t *Tree) Stats(cards []int) []LevelStats {
	h := t.Height()
	levels := make([]LevelStats, h)
	for i := range levels {
		levels[i].AvgExtent = make([]float64, t.dims)
	}

	var walk func(ni int32, depth int)
	walk = func(ni int32, depth int) {
		nd := &t.fnodes[ni]
		ls := &levels[depth]
		ls.Nodes++
		ls.Supports = append(ls.Supports, nd.maxSupport)
		box := t.nodeBox(ni)
		if !box.IsEmpty() {
			for d := 0; d < t.dims; d++ {
				ls.AvgExtent[d] += norm(box.Extent(d), cards[d])
			}
		}
		if nd.leaf {
			return
		}
		for c := nd.off; c < nd.off+nd.count; c++ {
			walk(c, depth+1)
		}
	}
	walk(t.froot, 0)

	for i := range levels {
		if levels[i].Nodes > 0 {
			for d := range levels[i].AvgExtent {
				levels[i].AvgExtent[d] /= float64(levels[i].Nodes)
			}
		}
		slices.Sort(levels[i].Supports)
	}
	return levels
}

func norm(extent, card int) float64 {
	if card <= 0 {
		return 0
	}
	return float64(extent) / float64(card)
}

// FractionAtLeast returns the fraction of the sorted supports that are
// >= minCount — the selectivity of a supported filter at that threshold.
func FractionAtLeast(sorted []int32, minCount int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= int32(minCount) })
	return float64(len(sorted)-i) / float64(len(sorted))
}
