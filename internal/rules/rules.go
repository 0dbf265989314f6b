// Package rules implements association rule generation and
// interestingness measures. The VERIFY operators of COLARM's mining plans
// call Generate for each qualified candidate itemset, supplying a local
// support oracle bound to the query's focal subset; the generation
// algorithm is ap-genrules (Agrawal & Srikant) with level-wise consequent
// growth and minconf pruning. Generate returns its rules in generation
// order — consequents level by level, each level in the order its
// consequents were joined — not sorted: a plan concatenates the rules of
// all its itemsets and orders the whole answer once with SortCanonical.
//
// Beyond support and confidence, the paper stresses null-invariant
// measures (its citation [23], Wu, Chen & Han); Lift, Cosine, Kulczynski
// and MaxConf are computed for every emitted rule.
package rules

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"colarm/internal/itemset"
)

// Rule is one association rule X ⇒ Y discovered within a focal subset.
// Counts are absolute record counts within the subset; fractional
// measures are relative to the subset size.
type Rule struct {
	Antecedent itemset.Set // X
	Consequent itemset.Set // Y

	SupportCount    int // |D^Q_{X∪Y}|
	AntecedentCount int // |D^Q_X|
	ConsequentCount int // |D^Q_Y|
	SubsetSize      int // |D^Q|

	Support    float64 // SupportCount / SubsetSize
	Confidence float64 // SupportCount / AntecedentCount
}

// Lift is Confidence / P(Y); values > 1 indicate positive correlation.
func (r Rule) Lift() float64 {
	if r.ConsequentCount == 0 || r.SubsetSize == 0 {
		return 0
	}
	py := float64(r.ConsequentCount) / float64(r.SubsetSize)
	if py == 0 {
		return 0
	}
	return r.Confidence / py
}

// Cosine is the null-invariant cosine measure
// supp(XY)/sqrt(supp(X)·supp(Y)).
func (r Rule) Cosine() float64 {
	d := float64(r.AntecedentCount) * float64(r.ConsequentCount)
	if d == 0 {
		return 0
	}
	return float64(r.SupportCount) / math.Sqrt(d)
}

// Kulczynski is the null-invariant average of the two directional
// confidences.
func (r Rule) Kulczynski() float64 {
	if r.AntecedentCount == 0 || r.ConsequentCount == 0 {
		return 0
	}
	return 0.5 * (float64(r.SupportCount)/float64(r.AntecedentCount) +
		float64(r.SupportCount)/float64(r.ConsequentCount))
}

// MaxConf is the null-invariant maximum of the two directional
// confidences.
func (r Rule) MaxConf() float64 {
	if r.AntecedentCount == 0 || r.ConsequentCount == 0 {
		return 0
	}
	a := float64(r.SupportCount) / float64(r.AntecedentCount)
	b := float64(r.SupportCount) / float64(r.ConsequentCount)
	return math.Max(a, b)
}

// Format renders the rule with item labels and its headline measures.
func (r Rule) Format(sp *itemset.Space) string {
	var b strings.Builder
	b.WriteString(r.Antecedent.Format(sp))
	b.WriteString(" => ")
	b.WriteString(r.Consequent.Format(sp))
	fmt.Fprintf(&b, "  [supp=%.1f%% conf=%.1f%%]", 100*r.Support, 100*r.Confidence)
	return b.String()
}

// Key returns a stable identity for the rule: "X=>Y" over the decimal
// item ids of its antecedent and consequent.
func (r Rule) Key() string { return string(r.appendKey(nil)) }

// appendKey appends the bytes of Key to buf.
func (r Rule) appendKey(buf []byte) []byte {
	buf = r.Antecedent.AppendKey(buf)
	buf = append(buf, "=>"...)
	return r.Consequent.AppendKey(buf)
}

// SupportOracle reports the absolute support count of an itemset within
// the focal subset, or -1 when the itemset's support cannot be resolved
// (not covered by the prestored CFIs). Oracles are provided by the
// mining plans (closure lookup + tidset∩D^Q) or by the from-scratch ARM
// plan (mined supports).
//
// x is valid only during the call: Generate passes its scratch buffer
// (or a subslice of the itemset it was given) and rewrites it for the
// next candidate, so an oracle that keeps x must copy it.
type SupportOracle func(x itemset.Set) int

// Options bounds rule generation.
type Options struct {
	// MaxConsequent caps |Y|; 0 means no cap. Long CFIs generate
	// exponentially many rules; plans default this to the CFI length.
	MaxConsequent int
}

// Generate emits the rules X ⇒ Y with X ∪ Y = items, X, Y nonempty and
// disjoint, whose confidence (relative to the focal subset) reaches
// minConf. suppCount is the local support of the full itemset;
// subsetSize is |D^Q|. Generation is level-wise over consequents: if a
// consequent Y fails minconf, every superset of Y is pruned, which is
// sound because growing Y shrinks X and confidence is anti-monotone in
// supp(X).
//
// Candidates are built in one per-call scratch buffer; only an emitted
// rule's items are copied, into one arena per call. Every returned
// slice is capped at its length, so no rule aliases items, the scratch
// or another rule, and an append to one reallocates.
func Generate(items itemset.Set, suppCount, subsetSize int, minConf float64, oracle SupportOracle, opts Options) []Rule {
	if len(items) < 2 || suppCount <= 0 || subsetSize <= 0 {
		return nil
	}
	n := len(items)
	maxCons := opts.MaxConsequent
	if maxCons <= 0 || maxCons > n-1 {
		maxCons = n - 1 // X must stay nonempty
	}
	scratch := make(itemset.Set, 2*n)
	g := generator{items: items, suppCount: suppCount, subsetSize: subsetSize,
		minConf: minConf, oracle: oracle, x: scratch[:0:n]}

	// frontier holds the surviving k-item consequents as one flat run,
	// in ascending (lexicographic) order; it is only kept when
	// consequents may grow past one item.
	var frontier, next []itemset.Item
	for i := range items {
		if g.try(items[i:i+1]) && maxCons > 1 {
			frontier = append(frontier, items[i])
		}
	}
	// Grow consequents level-wise from surviving ones (apriori-style
	// join on shared prefix).
	for k := 1; k < maxCons && len(frontier) > k; k++ {
		y := scratch[n : n+k+1]
		next = next[:0]
		for i := 0; i < len(frontier); i += k {
			a := frontier[i : i+k]
			for j := i + k; j < len(frontier); j += k {
				b := frontier[j : j+k]
				if !slices.Equal(a[:k-1], b[:k-1]) || a[k-1] >= b[k-1] {
					break // sorted frontier: no later j shares the prefix
				}
				copy(y, a)
				y[k] = b[k-1]
				if g.try(y) {
					next = append(next, y...)
				}
			}
		}
		frontier, next = next, frontier
	}

	// Rule i's items are arena[i·n : (i+1)·n], antecedent first; earlier
	// rules may still point into an arena the appends outgrew.
	for i := range g.out {
		lo, a := i*n, len(g.out[i].Antecedent)
		g.out[i].Antecedent = g.arena[lo : lo+a : lo+a]
		g.out[i].Consequent = g.arena[lo+a : lo+n : lo+n]
	}
	return g.out
}

// generator is the state of one Generate call.
type generator struct {
	items                 itemset.Set
	suppCount, subsetSize int
	minConf               float64
	oracle                SupportOracle
	x                     itemset.Set // scratch for the antecedent
	arena                 []itemset.Item
	out                   []Rule
}

// try evaluates (items\y) ⇒ y and emits it when confident.
func (g *generator) try(y itemset.Set) bool {
	x := g.x[:0]
	j := 0
	for _, it := range g.items {
		if j < len(y) && y[j] == it {
			j++
			continue
		}
		x = append(x, it)
	}
	if len(x) == 0 {
		return false
	}
	xCount := g.oracle(x)
	if xCount <= 0 {
		return false
	}
	conf := float64(g.suppCount) / float64(xCount)
	if conf < g.minConf {
		return false
	}
	yCount := g.oracle(y)
	if g.out == nil {
		// Room for every level-1 rule: all of them under MaxConsequent 1.
		n := len(g.items)
		g.out = make([]Rule, 0, n)
		g.arena = make([]itemset.Item, 0, n*n)
	}
	lo := len(g.arena)
	g.arena = append(append(g.arena, x...), y...)
	g.out = append(g.out, Rule{
		Antecedent:      g.arena[lo : lo+len(x)],
		Consequent:      g.arena[lo+len(x):],
		SupportCount:    g.suppCount,
		AntecedentCount: xCount,
		ConsequentCount: yCount,
		SubsetSize:      g.subsetSize,
		Support:         float64(g.suppCount) / float64(g.subsetSize),
		Confidence:      conf,
	})
	return true
}

// SortCanonical orders rules by descending confidence, then support,
// then key — the presentation order of the CLI and the comparison order
// of plan-equivalence tests. Every rule's key is written once into one
// byte arena, and the sort permutes compact records of the sort fields:
// a sort of n rules allocates three buffers, not n strings. A record
// carries its key's first eight bytes as a big-endian integer, zero
// padded, so most key comparisons are one integer comparison; only keys
// sharing those bytes compare their arena slices.
func SortCanonical(rs []Rule) {
	if len(rs) < 2 {
		return
	}
	type sortKey struct {
		conf   float64
		supp   int
		prefix uint64
		lo, hi int32 // the key is arena[lo:hi]
		i      int32
	}
	arena := make([]byte, 0, 16*len(rs))
	keys := make([]sortKey, len(rs))
	for i := range rs {
		lo := len(arena)
		arena = rs[i].appendKey(arena)
		var p [8]byte
		copy(p[:], arena[lo:])
		keys[i] = sortKey{conf: rs[i].Confidence, supp: rs[i].SupportCount,
			prefix: binary.BigEndian.Uint64(p[:]), lo: int32(lo), hi: int32(len(arena)), i: int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.conf > b.conf:
			return -1
		case a.conf < b.conf:
			return 1
		case a.supp != b.supp:
			return cmp.Compare(b.supp, a.supp)
		case a.prefix != b.prefix:
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(arena[a.lo:a.hi], arena[b.lo:b.hi])
	})
	sorted := make([]Rule, len(rs))
	for a, k := range keys {
		sorted[a] = rs[k.i]
	}
	copy(rs, sorted)
}
