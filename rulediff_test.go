package colarm

import (
	"context"
	"testing"
)

// TestLabelIndexMatchesRuleKey holds RuleDiff's label index to a map by
// RuleKey: every rule of a set is found at its own index, and a rule
// the set lacks — its sides swapped, a label dropped, moved across the
// arrow or changed — is not found. It runs with labelHash and with every
// hash forced equal, so each lookup walks the whole collision chain.
func TestLabelIndexMatchesRuleKey(t *testing.T) {
	eng := quarterChessEngine(t)
	res, err := eng.MineContext(context.Background(), Query{MinSupport: 0.85, MinConfidence: 0.5, MaxConsequent: 2})
	if err != nil {
		t.Fatal(err)
	}
	set := res.Rules
	if len(set) < 200 {
		t.Fatalf("%d rules, too few to mean anything", len(set))
	}
	byKey := make(map[string]int, len(set))
	for i, r := range set {
		byKey[RuleKey(r)] = i
	}
	var probes []Rule
	for _, r := range set {
		probes = append(probes, r,
			Rule{Antecedent: r.Consequent, Consequent: r.Antecedent},
			Rule{Antecedent: r.Antecedent[1:], Consequent: r.Consequent},
			Rule{Antecedent: r.Antecedent, Consequent: append(append([]string{}, r.Consequent...), r.Antecedent[0])},
			Rule{Antecedent: append([]string{r.Antecedent[0] + "x"}, r.Antecedent[1:]...), Consequent: r.Consequent})
	}
	for name, hash := range map[string]func(*Rule) uint64{
		"labelHash": labelHash,
		"collide":   func(*Rule) uint64 { return 7 },
	} {
		x := newLabelIndex(set, hash)
		found := 0
		for _, p := range probes {
			want, ok := byKey[RuleKey(p)]
			if !ok {
				want = -1
			}
			if got := x.find(&p); got != want {
				t.Fatalf("%s: find(%q) = %d, RuleKey says %d", name, RuleKey(p), got, want)
			}
			if want >= 0 {
				found++
			}
		}
		if found < len(set) {
			t.Fatalf("%s: found %d of %d rules", name, found, len(set))
		}
	}
}
