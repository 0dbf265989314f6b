package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/plans"
)

// tinySpec is a fast chess-like environment for harness tests.
func tinySpec() DatasetSpec {
	return DatasetSpec{
		Name:          "chess",
		Config:        datagen.Scaled(datagen.ChessConfig(5), 0.1),
		Primary:       0.80,
		MinSupps:      []float64{0.85, 0.90},
		MinConfs:      []float64{0.85, 0.95},
		DQFracs:       []float64{0.50, 0.10},
		GlobalMinSupp: 0.90,
		Fig8Sweep:     []float64{0.95, 0.90, 0.85},
	}
}

func tinyEnv(t testing.TB) *Env {
	t.Helper()
	env, err := Setup(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestSpecsProfiles(t *testing.T) {
	quick := Specs(false, 1)
	full := Specs(true, 1)
	if len(quick) != 3 || len(full) != 3 {
		t.Fatal("want 3 specs per profile")
	}
	for i := range quick {
		if quick[i].Config.Records > full[i].Config.Records {
			t.Errorf("%s: quick profile larger than full", quick[i].Name)
		}
		if quick[i].Primary < full[i].Primary {
			t.Errorf("%s: quick primary below full", quick[i].Name)
		}
	}
	if _, err := SpecByName(quick, "mushroom"); err != nil {
		t.Error(err)
	}
	if _, err := SpecByName(quick, "nope"); err == nil {
		t.Error("unknown spec must error")
	}
}

func TestRandomFocalSubsetApproximatesTarget(t *testing.T) {
	env := tinyEnv(t)
	rng := rand.New(rand.NewSource(3))
	m := env.Dataset.NumRecords()
	for _, frac := range []float64{0.5, 0.2, 0.05} {
		for i := 0; i < 5; i++ {
			reg := env.RandomFocalSubset(rng, frac)
			size := env.Index.SubsetBitmap(reg).Count()
			got := float64(size) / float64(m)
			if got < frac/8 || got > frac*8 {
				t.Errorf("frac %.2f run %d: |DQ|/m = %.3f (size %d)", frac, i, got, size)
			}
		}
	}
}

func TestRunFig8Monotone(t *testing.T) {
	env := tinyEnv(t)
	rows, err := env.RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CFIs < rows[i-1].CFIs {
			t.Errorf("CFIs fell from %d to %d as threshold dropped", rows[i-1].CFIs, rows[i].CFIs)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, "chess", rows)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("printer output malformed")
	}
}

func TestRunPlanGridAndPrinters(t *testing.T) {
	env := tinyEnv(t)
	rng := rand.New(rand.NewSource(9))
	cells, err := env.RunPlanGrid(0.85, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(env.Spec.DQFracs)*len(env.Spec.MinSupps) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if len(c.AvgTime) != 6 {
			t.Errorf("cell %v/%v has %d plan timings", c.DQFrac, c.MinSupp, len(c.AvgTime))
		}
		if c.BestAvg > c.ChosenAvg {
			// BestAvg must be the minimum.
			for _, d := range c.AvgTime {
				if d < c.BestAvg {
					t.Errorf("BestAvg not minimal")
				}
			}
		}
		if c.Regret() < 0 {
			t.Errorf("negative regret %v", c.Regret())
		}
	}
	var buf bytes.Buffer
	PrintPlanGrid(&buf, "chess", cells)
	out := buf.String()
	for _, want := range []string{"S-E-V", "SS-E-U-V", "ARM", "COLARM ->"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q", want)
		}
	}
	// Figure 12 gains from the same cells.
	row := Gains("chess", cells)
	if len(row.Gains) != 4 {
		t.Errorf("gains = %v", row.Gains)
	}
	buf.Reset()
	PrintGains(&buf, []GainRow{row})
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Error("gains printer malformed")
	}
}

func TestRunAccuracy(t *testing.T) {
	env := tinyEnv(t)
	rng := rand.New(rand.NewSource(11))
	res, err := env.RunAccuracy(1, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := len(env.Spec.DQFracs) * len(env.Spec.MinSupps) * len(env.Spec.MinConfs)
	if res.Scenarios != want {
		t.Fatalf("scenarios = %d, want %d", res.Scenarios, want)
	}
	if res.Correct < 0 || res.Correct > res.Scenarios {
		t.Fatal("correct count out of range")
	}
	var buf bytes.Buffer
	PrintAccuracy(&buf, []AccuracyResult{res}, 0.25)
	if !strings.Contains(buf.String(), "overall") {
		t.Error("accuracy printer malformed")
	}
}

func TestRunLocalVsGlobal(t *testing.T) {
	env := tinyEnv(t)
	rng := rand.New(rand.NewSource(13))
	rows := env.RunLocalVsGlobal(2, rng)
	if len(rows) != len(env.Spec.DQFracs) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Ascending DQ order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].DQFrac > rows[i].DQFrac {
			t.Error("rows not ascending")
		}
	}
	var buf bytes.Buffer
	PrintFig13(&buf, "chess", rows)
	if !strings.Contains(buf.String(), "fresh-local") {
		t.Error("fig13 printer malformed")
	}
}

func TestRunSimpson(t *testing.T) {
	env := tinyEnv(t)
	// The chess generator plants a pattern inside f00 = f001.
	rep, err := env.RunSimpson("f00", "f001", 0.85, 0.95, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubsetSize == 0 {
		t.Fatal("subset empty")
	}
	if rep.LocalCFIs < rep.HiddenCFIs {
		t.Error("hidden exceeds local")
	}
	var buf bytes.Buffer
	PrintSimpson(&buf, rep)
	if !strings.Contains(buf.String(), "Simpson") {
		t.Error("simpson printer malformed")
	}
	// Errors.
	if _, err := env.RunSimpson("nope", "x", 0.8, 0.4, 3); err == nil {
		t.Error("unknown attribute must error")
	}
	if _, err := env.RunSimpson("f00", "zzz", 0.8, 0.4, 3); err == nil {
		t.Error("unknown value must error")
	}
}

func TestPlanEquivalenceOnBenchmarkData(t *testing.T) {
	// Integration check: all plans answer identically on generated
	// benchmark data, not just the random property datasets.
	env := tinyEnv(t)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3; i++ {
		reg := env.RandomFocalSubset(rng, 0.25)
		q := env.QueryFor(reg, 0.85, 0.9)
		var ref []string
		for _, k := range []plans.Kind{plans.SEV, plans.SVS, plans.SSEV, plans.SSVS, plans.SSEUV} {
			res, err := env.Executor.Run(k, env.Surface, q)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, r := range res.Rules {
				keys = append(keys, r.Key())
			}
			if ref == nil {
				ref = keys
				continue
			}
			if len(keys) != len(ref) {
				t.Fatalf("plan %v: %d rules vs %d", k, len(keys), len(ref))
			}
			for j := range keys {
				if keys[j] != ref[j] {
					t.Fatalf("plan %v rule %d differs", k, j)
				}
			}
		}
	}
}
