package colarm

import (
	"context"
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
// and diffs the result against prev by RuleKey. Passing nil prev
// yields a diff in which every rule Appeared — the snapshot form.
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
	// Key each previous rule once; a rule set's keys are distinct.
	old := make(map[string]int, len(prev))
	for i, r := range prev {
		old[RuleKey(r)] = i
	}
	matched := make([]bool, len(prev))
	for _, r := range res.Rules {
		i, ok := old[RuleKey(r)]
		if !ok {
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
