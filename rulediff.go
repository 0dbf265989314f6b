package colarm

import (
	"context"
	"hash/maphash"
	"slices"
	"strings"
)

// RuleSetDiff is the change in a localized query's rule set between a
// previous snapshot and the engine's current state, as computed by
// Engine.RuleDiff. Rules are identified by their antecedent/consequent
// item labels (RuleKey); a rule present on both sides with any changed
// measure appears in Updated with its current values.
//
// Replaying a snapshot plus a sequence of diffs reconstructs the rule
// set exactly: drop Disappeared, then upsert Appeared and Updated.
type RuleSetDiff struct {
	// Generation and Version locate the current side on the engine's
	// (generation, version-clock) timeline; Version is read after the
	// mining completes, so under concurrent ingestion it is an upper
	// bound on the version the rules reflect.
	Generation uint64
	Version    uint64

	// Rules is the full current rule set (the diff's "after" side).
	Rules []Rule

	// Appeared lists rules present now but absent from prev;
	// Disappeared the reverse (with their previous values); Updated the
	// rules present on both sides whose counts or measures changed,
	// carrying current values.
	Appeared    []Rule
	Disappeared []Rule
	Updated     []Rule
}

// Empty reports whether the diff carries no change at all.
func (d *RuleSetDiff) Empty() bool {
	return len(d.Appeared) == 0 && len(d.Disappeared) == 0 && len(d.Updated) == 0
}

// RuleKey identifies a rule by its item labels — the antecedent and
// consequent joined with unit separators — independent of its measured
// values. Two rules with equal keys are "the same rule" across
// versions; diffing tracks measure movement under the key.
func RuleKey(r Rule) string {
	return strings.Join(r.Antecedent, "\x1f") + "\x1e" + strings.Join(r.Consequent, "\x1f")
}

// labelSeed keys labelHash; it is per process, and no hash outlives one.
var labelSeed = maphash.MakeSeed()

// labelHash hashes a rule's labels, the identity RuleKey spells out:
// each label's hash mixed in order, the antecedent's length separating
// the two sides.
func labelHash(r *Rule) uint64 {
	const prime = 0x100000001b3
	h := uint64(len(r.Antecedent))
	for _, l := range r.Antecedent {
		h = (h ^ maphash.String(labelSeed, l)) * prime
	}
	for _, l := range r.Consequent {
		h = (h ^ maphash.String(labelSeed, l)) * prime
	}
	return h
}

// labelIndex finds a rule of a set by its labels: each rule is indexed
// once by a hash of them, the rare rules whose hashes collide chained,
// and a match is an exact label compare, so no key string is joined.
type labelIndex struct {
	rules []Rule
	hash  func(*Rule) uint64
	first map[uint64]int // the last rule of each hash
	next  []int          // the rule before i with i's hash, or -1
}

func newLabelIndex(rules []Rule, hash func(*Rule) uint64) *labelIndex {
	x := &labelIndex{rules: rules, hash: hash, first: make(map[uint64]int, len(rules)), next: make([]int, len(rules))}
	for i := range rules {
		h := hash(&rules[i])
		j, ok := x.first[h]
		if !ok {
			j = -1
		}
		x.next[i], x.first[h] = j, i
	}
	return x
}

// find returns the index of the rule with r's labels — the last one,
// should the set repeat them — or -1.
func (x *labelIndex) find(r *Rule) int {
	i, ok := x.first[x.hash(r)]
	if !ok {
		return -1
	}
	for i >= 0 && !sameLabels(&x.rules[i], r) {
		i = x.next[i]
	}
	return i
}

// sameLabels reports whether a and b are the same rule: equal labels,
// side for side.
func sameLabels(a, b *Rule) bool {
	return slices.Equal(a.Antecedent, b.Antecedent) && slices.Equal(a.Consequent, b.Consequent)
}

// sameMeasures reports whether two same-key rules carry identical
// counts; every derived measure (support, confidence, lift, cosine,
// Kulczynski) is a pure function of counts computed by the same code,
// so equal counts imply bit-equal measures. Lift and friends also
// depend on the consequent's subset support, which the counts do not
// pin down — compare the derived floats too.
func sameMeasures(a, b Rule) bool {
	return a.SupportCount == b.SupportCount &&
		a.AntecedentCount == b.AntecedentCount &&
		a.SubsetSize == b.SubsetSize &&
		a.Support == b.Support &&
		a.Confidence == b.Confidence &&
		a.Lift == b.Lift &&
		a.Cosine == b.Cosine &&
		a.Kulczynski == b.Kulczynski
}

// RuleDiff mines q against the engine's current state and returns the
// change relative to prev, a previously obtained rule set for the same
// query. It executes one mining pass through the shared merged-view
// machinery (the view is materialized at most once per delta version,
// so concurrent diffs of different queries at one version share it)
// and diffs the result against prev by label, as RuleKey identifies a
// rule. Passing nil prev yields a diff in which every rule Appeared —
// the snapshot form.
func (e *Engine) RuleDiff(ctx context.Context, q Query, prev []Rule) (*RuleSetDiff, error) {
	res, err := e.MineContext(ctx, q)
	if err != nil {
		return nil, err
	}
	d := &RuleSetDiff{
		Generation: e.gen,
		Version:    e.Version(),
		Rules:      res.Rules,
	}
	old := newLabelIndex(prev, labelHash)
	matched := make([]bool, len(prev))
	for _, r := range res.Rules {
		i := old.find(&r)
		if i < 0 {
			d.Appeared = append(d.Appeared, r)
			continue
		}
		matched[i] = true
		if !sameMeasures(prev[i], r) {
			d.Updated = append(d.Updated, r)
		}
	}
	// Preserve prev's order for the disappeared side (map iteration
	// would make the diff nondeterministic).
	for i, r := range prev {
		if !matched[i] {
			d.Disappeared = append(d.Disappeared, r)
		}
	}
	return d, nil
}
