// Package plans implements COLARM's online query processing phase
// (paper Section 4): the isolated mining operators — SEARCH,
// SUPPORTED-SEARCH, ELIMINATE, VERIFY, SUPPORTED-VERIFY, UNION, SELECT
// and ARM — and the six execution plans pipelined from them:
//
//	S-E-V      basic pipeline
//	S-VS       selection push-up (merge ELIMINATE into VERIFY)
//	SS-E-V     supported R-tree filter
//	SS-VS      supported filter + selection push-up
//	SS-E-U-V   supported filter + differential treatment of contained
//	           vs partially overlapped MIPs (Lemma 4.5)
//	ARM        traditional from-scratch rule mining over the focal subset
//
// The five MIP-index plans compute the identical canonical answer: the
// rules generated from the item-attribute projections (normalized to
// their closures) of every prestored closed frequent itemset that
// reaches minsupport within the focal subset, with every rule verified
// against minconfidence in the subset. They differ only in the work
// performed.
//
// The ARM plan is the from-scratch ground truth: it mines the extracted
// subset directly with CHARM, so it is not limited to itemsets above
// the index's primary support. Its answer covers the MIP plans' answer
// (every index rule reappears with the same antecedent, support count
// and confidence, represented through its local closure) and may
// additionally contain locally frequent rules the index cannot see.
package plans

import (
	"fmt"
	"strings"
	"time"

	"colarm/internal/itemset"
	"colarm/internal/obs"
	"colarm/internal/qerr"
	"colarm/internal/rules"
)

// Kind identifies one of the six mining plans (paper Table 4).
type Kind int

const (
	SEV Kind = iota
	SVS
	SSEV
	SSVS
	SSEUV
	ARM
	numKinds
)

// Kinds lists every plan in display order.
func Kinds() []Kind { return []Kind{SEV, SVS, SSEV, SSVS, SSEUV, ARM} }

func (k Kind) String() string {
	switch k {
	case SEV:
		return "S-E-V"
	case SVS:
		return "S-VS"
	case SSEV:
		return "SS-E-V"
	case SSVS:
		return "SS-VS"
	case SSEUV:
		return "SS-E-U-V"
	case ARM:
		return "ARM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a plan name to its Kind. Matching ignores case and
// the "-"/"_" separators, so "S-E-V", "sev" and "SS_VS" all resolve.
func ParseKind(s string) (Kind, error) {
	want := normalizePlanName(s)
	if want != "" {
		for _, k := range Kinds() {
			if normalizePlanName(k.String()) == want {
				return k, nil
			}
		}
	}
	names := make([]string, 0, int(numKinds))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("plans: %w %q (valid plans: %s)", qerr.ErrUnknownPlan, s, strings.Join(names, ", "))
}

// normalizePlanName strips the separators plan names are written with
// and folds case, mapping every accepted spelling to one key.
func normalizePlanName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '-' || c == '_':
		case c >= 'a' && c <= 'z':
			b.WriteByte(c - 'a' + 'A')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Query is one localized mining request (paper Section 2.2).
type Query struct {
	// Region is the focal subset D^Q selected by the RANGE clause.
	Region *itemset.Region
	// ItemAttrs flags, per attribute, whether it participates in rule
	// bodies (the ITEM ATTRIBUTES clause); nil means all attributes.
	ItemAttrs []bool
	// MinSupport is minsupp as a fraction of |D^Q|, in (0,1].
	MinSupport float64
	// MinConfidence is minconf in [0,1].
	MinConfidence float64
	// MaxConsequent caps rule consequent size (0 = unlimited).
	MaxConsequent int
	// Trace, when non-nil, receives one span per operator the plan
	// executes, plus the plan label and total duration. A Trace belongs
	// to one Run call — attach a fresh one per query. Nil (the default)
	// keeps execution on the untraced fast path.
	Trace *obs.Trace
}

// Validate checks the query parameters against the item space of the
// dataset it targets.
func (q *Query) Validate(sp *itemset.Space) error {
	if q.Region == nil {
		return fmt.Errorf("plans: query has no region")
	}
	if q.Region.Dims() != sp.NumAttrs() {
		return fmt.Errorf("plans: region has %d dims, dataset has %d attributes", q.Region.Dims(), sp.NumAttrs())
	}
	if q.MinSupport <= 0 || q.MinSupport > 1 {
		return fmt.Errorf("plans: %w: minsupport %v outside (0,1]", qerr.ErrBadThreshold, q.MinSupport)
	}
	if q.MinConfidence < 0 || q.MinConfidence > 1 {
		return fmt.Errorf("plans: %w: minconfidence %v outside [0,1]", qerr.ErrBadThreshold, q.MinConfidence)
	}
	if q.MaxConsequent < 0 {
		return fmt.Errorf("plans: %w: max consequent %d negative", qerr.ErrBadThreshold, q.MaxConsequent)
	}
	if q.ItemAttrs != nil && len(q.ItemAttrs) != sp.NumAttrs() {
		return fmt.Errorf("plans: item attribute mask has %d entries, dataset has %d attributes", len(q.ItemAttrs), sp.NumAttrs())
	}
	return nil
}

// Stats instruments one plan execution with the operator-level counters
// whose cardinalities the cost model estimates.
type Stats struct {
	Plan       Kind
	SubsetSize int // |D^Q|
	MinCount   int // minsupp as an absolute record count

	// SEARCH / SUPPORTED-SEARCH.
	RNodesVisited   int // R-tree nodes touched
	REntriesChecked int // leaf entries tested
	Candidates      int // |{I^Q_S}| or |{I^Q_SS}|
	Contained       int // candidates fully contained in D^Q
	PartialOverlap  int // candidates partially overlapping D^Q

	// ELIMINATE / SUPPORTED-VERIFY support checking.
	ItemFiltered int // candidates dropped by the item-attribute filter
	// SupportChecks counts the record-level tidset∩D^Q counts performed:
	// one per distinct CFI ELIMINATE checks, one per item its item bound
	// counts, one per VERIFY oracle miss.
	SupportChecks int
	// Eliminated counts the candidates failing local minsupport, whether
	// a check or the item bound settled them.
	Eliminated int
	Qualified  int // |{I^Q_E}| (or equivalent) reaching rule generation

	// VERIFY.
	OracleCalls  int // antecedent/consequent support lookups
	OracleMisses int // lookups VERIFY's memo missed; always 0 for ARM
	RulesEmitted int

	// ARM only.
	ARMFrequentItemsets int

	Duration time.Duration
}

// Result is the outcome of executing a plan: the localized rules in
// canonical order plus execution statistics.
type Result struct {
	Rules []rules.Rule
	Stats Stats
}
