package datagen

import (
	"testing"

	"colarm/internal/charm"
	"colarm/internal/itemset"
)

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := ChessConfig(1)
	cases := []func(c *Config){
		func(c *Config) { c.Records = 0 },
		func(c *Config) { c.Attrs = nil },
		func(c *Config) { c.Clusters = nil },
		func(c *Config) { c.Attrs[0].Cardinality = 1 },
		func(c *Config) { c.Attrs[0].Align = nil },
		func(c *Config) { c.LocalPatterns[0].RangeAttr = 99 },
		func(c *Config) { c.LocalPatterns[0].Items = map[int]int{99: 0} },
		func(c *Config) { c.LocalPatterns[0].Items = map[int]int{0: 99} },
	}
	for i, mut := range cases {
		c := ChessConfig(1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config validated", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestSalaryMatchesPaperTable(t *testing.T) {
	d := Salary()
	if d.NumRecords() != 11 || d.NumAttrs() != 6 {
		t.Fatalf("salary shape %dx%d", d.NumRecords(), d.NumAttrs())
	}
	if d.ValueString(6, 1) != "Tech Arch" {
		t.Errorf("row 6 title = %q", d.ValueString(6, 1))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Scaled(MushroomConfig(7), 0.05)
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumRecords() != d2.NumRecords() {
		t.Fatal("record counts differ")
	}
	for r := 0; r < d1.NumRecords(); r++ {
		for a := 0; a < d1.NumAttrs(); a++ {
			if d1.Value(r, a) != d2.Value(r, a) {
				t.Fatalf("cell (%d,%d) differs", r, a)
			}
		}
	}
	// A different seed must differ somewhere.
	cfg2 := cfg
	cfg2.Seed = 8
	d3, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < d1.NumRecords() && same; r++ {
		for a := 0; a < d1.NumAttrs(); a++ {
			if d1.Value(r, a) != d3.Value(r, a) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		cfg     Config
		records int
		items   int
	}{
		{ChessConfig(1), 3196, 76},
		{MushroomConfig(1), 8124, 0},
		{PUMSBConfig(1), 49046, 74 * 96},
	}
	for _, c := range cases {
		if c.cfg.Records != c.records {
			t.Errorf("%s records = %d, want %d", c.cfg.Name, c.cfg.Records, c.records)
		}
		total := 0
		for _, a := range c.cfg.Attrs {
			total += a.Cardinality
		}
		if c.items > 0 && total != c.items {
			t.Errorf("%s items = %d, want %d", c.cfg.Name, total, c.items)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
	}
	// Mushroom item total should be near 120 (cardinalities mirror UCI).
	m := 0
	for _, a := range MushroomConfig(1).Attrs {
		m += a.Cardinality
	}
	if m < 110 || m > 130 {
		t.Errorf("mushroom items = %d, want ~120", m)
	}
}

func TestScaledClamps(t *testing.T) {
	cfg := Scaled(ChessConfig(1), 0.001)
	if cfg.Records != 64 {
		t.Errorf("scaled records = %d, want clamp to 64", cfg.Records)
	}
	if Scaled(ChessConfig(1), 0.5).Records != 1598 {
		t.Error("half scale wrong")
	}
}

// TestCFICurveShape checks the Figure 8 characteristic on scaled-down
// data: the CFI count grows monotonically (weakly) as the primary
// threshold drops, and the datasets actually produce nontrivial CFI
// populations at their paper thresholds.
func TestCFICurveShape(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		sweeps []float64 // descending thresholds
		floor  int       // min CFIs at the last (lowest) threshold
	}{
		{Scaled(ChessConfig(3), 0.15), []float64{0.9, 0.8, 0.7}, 50},
		{Scaled(MushroomConfig(3), 0.08), []float64{0.4, 0.3, 0.2}, 50},
	} {
		d, err := Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp := itemset.NewSpace(d)
		prev := -1
		for _, th := range tc.sweeps {
			res, err := charm.MineSupport(d, sp, th)
			if err != nil {
				t.Fatal(err)
			}
			n := res.Len()
			if prev >= 0 && n < prev {
				t.Errorf("%s: CFI count fell from %d to %d as threshold dropped to %v",
					tc.cfg.Name, prev, n, th)
			}
			prev = n
		}
		if prev < tc.floor {
			t.Errorf("%s: only %d CFIs at lowest threshold, want >= %d", tc.cfg.Name, prev, tc.floor)
		}
	}
}

// TestLocalPatternsCreateLocalStructure verifies the Simpson's-paradox
// setup: the planted itemsets are much more frequent inside their region
// than globally.
func TestLocalPatternsCreateLocalStructure(t *testing.T) {
	cfg := Scaled(MushroomConfig(11), 0.25)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp := cfg.LocalPatterns[0]
	inRegion, inBoth, global := 0, 0, 0
	for r := 0; r < d.NumRecords(); r++ {
		match := true
		for a, v := range lp.Items {
			if d.Value(r, a) != v {
				match = false
				break
			}
		}
		if match {
			global++
		}
		if containsInt(lp.RangeValues, d.Value(r, lp.RangeAttr)) {
			inRegion++
			if match {
				inBoth++
			}
		}
	}
	if inRegion == 0 {
		t.Fatal("region empty")
	}
	localSupp := float64(inBoth) / float64(inRegion)
	globalSupp := float64(global) / float64(d.NumRecords())
	if localSupp < globalSupp+0.2 {
		t.Errorf("pattern not localized: local %.2f vs global %.2f", localSupp, globalSupp)
	}
	if localSupp < 0.6 {
		t.Errorf("local support %.2f too weak", localSupp)
	}
}
