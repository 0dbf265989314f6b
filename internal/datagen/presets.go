package datagen

import (
	"fmt"

	"colarm/internal/relation"
)

// Salary returns the paper's Table 1 example dataset verbatim.
func Salary() *relation.Dataset {
	b := relation.NewBuilder("salary", "Company", "Title", "Location", "Gender", "Age", "Salary")
	rows := [][]string{
		{"IBM", "QA Lead", "Boston", "M", "30-40", "60K-90K"},
		{"IBM", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"IBM", "Engg Mgr", "SFO", "M", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "SFO", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "F", "20-30", "90K-120K"},
		{"Google", "Sw Engg", "Boston", "M", "20-30", "90K-120K"},
		{"Google", "Tech Arch", "Boston", "M", "40-50", "120K-150K"},
		{"Microsoft", "Engg Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Microsoft", "Sw Engg", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Mgr", "Seattle", "F", "30-40", "90K-120K"},
		{"Facebook", "QA Engg", "Seattle", "F", "20-30", "30K-60K"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			panic(err) // fixed data: cannot fail
		}
	}
	return b.Build()
}

// ChessConfig mirrors UCI chess (kr-vs-kp): 3196 records, 37 mostly
// binary attributes, 76 items, fully dense, a single population with a
// symmetric CFI-length distribution and an exploding CFI count as the
// primary threshold drops (paper Figure 8). The paper builds the chess
// MIP-index at primary support 60%.
func ChessConfig(seed int64) Config {
	attrs := make([]AttrSpec, 37)
	for i := range attrs {
		card := 2
		if i == 36 {
			card = 4 // the "class-like" wider attribute: 36*2+4 = 76 items
		}
		// Alignment decays across attributes: a handful of strongly
		// aligned attributes drive long closed itemsets; the tail adds
		// breadth at lower thresholds.
		align := 0.97 - 0.019*float64(i)
		if align < 0.30 {
			align = 0.30
		}
		attrs[i] = AttrSpec{
			Name:        fmt.Sprintf("f%02d", i),
			Cardinality: card,
			Align:       []float64{align},
		}
	}
	return Config{
		Name:     "chess",
		Records:  3196,
		Attrs:    attrs,
		Clusters: []float64{1},
		Skew:     0.4,
		Seed:     seed,
		LocalPatterns: []LocalPattern{
			// Globally ~65% (just above the 60% primary), locally ~95%
			// for records with f00 = 1 — hidden local structure.
			{RangeAttr: 0, RangeValues: []int{1}, InsideProb: 0.95, OutsideProb: 0.62,
				Items: map[int]int{30: 1, 31: 1, 32: 1}},
			{RangeAttr: 36, RangeValues: []int{2, 3}, InsideProb: 0.92, OutsideProb: 0.60,
				Items: map[int]int{33: 1, 34: 1}},
		},
	}
}

// MushroomConfig mirrors UCI mushroom: 8124 records, 23 attributes of
// mixed cardinality (~120 items), two latent populations of different
// signature breadth producing the bi-modal CFI-length distribution the
// paper highlights, and a gradual CFI-count curve. The paper builds the
// mushroom MIP-index at primary support 5%.
func MushroomConfig(seed int64) Config {
	cards := []int{2, 6, 4, 10, 2, 9, 4, 3, 2, 12, 2, 5, 4, 4, 9, 9, 2, 4, 3, 5, 9, 6, 4}
	attrs := make([]AttrSpec, len(cards))
	for i, card := range cards {
		// Cluster 0 (55%): broad signature — long CFIs. Cluster 1
		// (45%): narrow 7-attribute signature — short CFIs. The two
		// humps of the bi-modal length distribution come from this
		// split. Row diversity is capped by the prototype pool below,
		// which is what keeps the CFI count moderate and its growth
		// gradual (real mushroom's strong functional dependencies).
		a0 := 0.92 - 0.018*float64(i)
		a1 := 0.02
		if i < 7 {
			a1 = 0.92
		}
		attrs[i] = AttrSpec{
			Name:        fmt.Sprintf("m%02d", i),
			Cardinality: card,
			Align:       []float64{a0, a1},
		}
	}
	return Config{
		Name:       "mushroom",
		Records:    8124,
		Attrs:      attrs,
		Clusters:   []float64{0.55, 0.45},
		Skew:       0.8,
		Prototypes: 24,
		Seed:       seed,
		LocalPatterns: []LocalPattern{
			// The Section 5.3 anecdote: the subpopulation selected by
			// m01 = m011 (about 45% of records, like the paper's
			// stalk-shape=tapering subset) carries co-occurrences that
			// hold at ~72-80% locally but only ~35-40% globally.
			{RangeAttr: 1, RangeValues: []int{1}, InsideProb: 0.80, OutsideProb: 0.06,
				Items: map[int]int{10: 1, 16: 1}},
			{RangeAttr: 1, RangeValues: []int{1}, InsideProb: 0.72, OutsideProb: 0.05,
				Items: map[int]int{12: 2, 17: 2, 19: 3}},
			{RangeAttr: 4, RangeValues: []int{1}, InsideProb: 0.75, OutsideProb: 0.10,
				Items: map[int]int{20: 4, 21: 3}},
		},
	}
}

// PUMSBConfig mirrors UCI PUMSB census data: 49046 records, 74
// high-cardinality attributes (~7100 items), very dense and skewed,
// with a symmetric CFI-length distribution. The paper builds the PUMSB
// MIP-index at primary support 80%.
func PUMSBConfig(seed int64) Config {
	attrs := make([]AttrSpec, 74)
	for i := range attrs {
		card := 96
		// A 17-attribute high-alignment core drives the large CFI
		// population at high thresholds; the tail adds breadth lower.
		align := 0.982
		if i >= 17 {
			align = 0.72 - 0.009*float64(i-17)
			if align < 0.20 {
				align = 0.20
			}
		}
		attrs[i] = AttrSpec{
			Name:        fmt.Sprintf("p%02d", i),
			Cardinality: card,
			Align:       []float64{align},
		}
	}
	return Config{
		Name:     "pumsb",
		Records:  49046,
		Attrs:    attrs,
		Clusters: []float64{1},
		Skew:     1.3,
		Seed:     seed,
		LocalPatterns: []LocalPattern{
			{RangeAttr: 0, RangeValues: []int{1, 2}, InsideProb: 0.96, OutsideProb: 0.80,
				Items: map[int]int{60: 1, 61: 1, 62: 1}},
			{RangeAttr: 73, RangeValues: []int{0}, InsideProb: 0.95, OutsideProb: 0.78,
				Items: map[int]int{63: 2, 64: 2}},
		},
	}
}

// Scaled returns a copy of cfg with the record count scaled by frac
// (clamped to at least 64 records) — the quick-profile knob for tests
// and default benchmarks.
func Scaled(cfg Config, frac float64) Config {
	out := cfg
	out.Records = int(float64(cfg.Records) * frac)
	if out.Records < 64 {
		out.Records = 64
	}
	return out
}
