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
type SupportOracle func(itemset.Set) int

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
func Generate(items itemset.Set, suppCount, subsetSize int, minConf float64, oracle SupportOracle, opts Options) []Rule {
	if len(items) < 2 || suppCount <= 0 || subsetSize <= 0 {
		return nil
	}
	maxCons := opts.MaxConsequent
	if maxCons <= 0 || maxCons > len(items)-1 {
		maxCons = len(items) - 1 // X must stay nonempty
	}
	var out []Rule

	// Level 1 consequents.
	var frontier []itemset.Set
	for _, it := range items {
		y := itemset.Set{it}
		if r, ok := tryRule(items, y, suppCount, subsetSize, minConf, oracle); ok {
			out = append(out, r)
			frontier = append(frontier, y)
		}
	}
	// Grow consequents level-wise from surviving ones (apriori-style
	// join on shared prefix).
	for level := 2; level <= maxCons && len(frontier) > 1; level++ {
		var next []itemset.Set
		for i := 0; i < len(frontier); i++ {
			for j := i + 1; j < len(frontier); j++ {
				y := joinPrefix(frontier[i], frontier[j])
				if y == nil {
					break // sorted frontier: no later j shares the prefix
				}
				if r, ok := tryRule(items, y, suppCount, subsetSize, minConf, oracle); ok {
					out = append(out, r)
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return out
}

// tryRule evaluates (items\y) ⇒ y, returning it when confident.
func tryRule(items, y itemset.Set, suppCount, subsetSize int, minConf float64, oracle SupportOracle) (Rule, bool) {
	x := items.Minus(y)
	if len(x) == 0 {
		return Rule{}, false
	}
	xCount := oracle(x)
	if xCount <= 0 {
		return Rule{}, false
	}
	conf := float64(suppCount) / float64(xCount)
	if conf < minConf {
		return Rule{}, false
	}
	yCount := oracle(y)
	return Rule{
		Antecedent:      x,
		Consequent:      y,
		SupportCount:    suppCount,
		AntecedentCount: xCount,
		ConsequentCount: yCount,
		SubsetSize:      subsetSize,
		Support:         float64(suppCount) / float64(subsetSize),
		Confidence:      conf,
	}, true
}

// joinPrefix merges two k-sets sharing their first k-1 items into a
// (k+1)-set, or nil when they do not join.
func joinPrefix(a, b itemset.Set) itemset.Set {
	k := len(a)
	for i := 0; i < k-1; i++ {
		if a[i] != b[i] {
			return nil
		}
	}
	if a[k-1] >= b[k-1] {
		return nil
	}
	out := make(itemset.Set, k+1)
	copy(out, a)
	out[k] = b[k-1]
	return out
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
