package colarm_test

// Benchmarks regenerating the paper's evaluation artifacts (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured discussion):
//
//	BenchmarkFig8*            E1: CFI mining across primary thresholds
//	BenchmarkFig9Chess        E2: plan costs on chess
//	BenchmarkFig10Mushroom    E3: plan costs on mushroom
//	BenchmarkFig11PUMSB       E4: plan costs on PUMSB
//	BenchmarkOptimizerChoose  E5: plan-selection latency
//	BenchmarkFig13*           E7: local-vs-global CFI classification
//	BenchmarkRTree*           A1: packing-scheme ablation
//	BenchmarkIndexBuild       offline phase
//
// Each benchmark uses the reduced-profile datasets so the suite
// completes in minutes; `cmd/colarm-bench -full` runs the paper-scale
// configuration.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"colarm"
	"colarm/internal/bench"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/plans"
)

var (
	envOnce  sync.Once
	envCache map[string]*bench.Env
)

func benchEnv(b *testing.B, name string) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		envCache = map[string]*bench.Env{}
		for _, spec := range bench.Specs(false, 1) {
			env, err := bench.Setup(spec)
			if err != nil {
				panic(err)
			}
			envCache[spec.Name] = env
		}
	})
	env, ok := envCache[name]
	if !ok {
		b.Fatalf("no benchmark environment %q", name)
	}
	return env
}

// BenchmarkFig8 mines the closed frequent itemsets at each dataset's
// lowest swept primary threshold — the expensive end of the Figure 8
// curve (E1).
func BenchmarkFig8(b *testing.B) {
	for _, name := range []string{"chess", "mushroom", "pumsb"} {
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, name)
			th := env.Spec.Fig8Sweep[len(env.Spec.Fig8Sweep)-1]
			sp := env.Index.Space
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := charm.MineSupport(env.Dataset, sp, th)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no CFIs")
				}
			}
		})
	}
}

// planGrid benchmarks one dataset's Figures 9-11 grid: every plan at
// every focal-subset size, at the dataset's middle minsupport.
func planGrid(b *testing.B, dataset string) {
	env := benchEnv(b, dataset)
	minSupp := env.Spec.MinSupps[len(env.Spec.MinSupps)/2]
	for _, frac := range env.Spec.DQFracs {
		for _, kind := range plans.Kinds() {
			b.Run(fmt.Sprintf("dq=%.0f%%/plan=%s", 100*frac, kind), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				regions := make([]*itemset.Region, 4)
				for i := range regions {
					regions[i] = env.RandomFocalSubset(rng, frac)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := env.QueryFor(regions[i%len(regions)], minSupp, 0.85)
					if _, err := env.Executor.Run(kind, env.Surface, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig9Chess(b *testing.B)     { planGrid(b, "chess") }
func BenchmarkFig10Mushroom(b *testing.B) { planGrid(b, "mushroom") }
func BenchmarkFig11PUMSB(b *testing.B)    { planGrid(b, "pumsb") }

// BenchmarkOptimizerChoose measures the cost of a COLARM plan-selection
// decision — the constant-time estimation the paper's online optimizer
// performs per query (E5's mechanism) — on each benchmark dataset.
func BenchmarkOptimizerChoose(b *testing.B) {
	for _, name := range []string{"chess", "mushroom", "pumsb"} {
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, name)
			rng := rand.New(rand.NewSource(11))
			regions := make([]*itemset.Region, 8)
			for i := range regions {
				regions[i] = env.RandomFocalSubset(rng, 0.2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := env.QueryFor(regions[i%len(regions)], env.Spec.MinSupps[0], 0.85)
				env.Model.Choose(env.Executor.Focus(env.Surface, q), q)
			}
		})
	}
}

// BenchmarkFig13 measures the local-vs-global CFI classification pass
// (E7) at the 10% focal-subset size.
func BenchmarkFig13(b *testing.B) {
	for _, name := range []string{"chess", "mushroom"} {
		b.Run(name, func(b *testing.B) {
			env := benchEnv(b, name)
			saved := env.Spec.DQFracs
			env.Spec.DQFracs = []float64{0.10}
			defer func() { env.Spec.DQFracs = saved }()
			rng := rand.New(rand.NewSource(13))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows := env.RunLocalVsGlobal(1, rng)
				if len(rows) != 1 {
					b.Fatal("unexpected row count")
				}
			}
		})
	}
}

// BenchmarkIndexBuild measures the one-time offline preprocessing phase
// (item tidsets + CHARM + MIP boxes + packed supported R-tree) on the
// three reduced-profile datasets.
func BenchmarkIndexBuild(b *testing.B) {
	for _, name := range []string{"chess", "mushroom", "pumsb"} {
		b.Run(name, func(b *testing.B) {
			spec, err := bench.SpecByName(bench.Specs(false, 1), name)
			if err != nil {
				b.Fatal(err)
			}
			d, err := datagen.Generate(spec.Config)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				b.Fatal(err)
			}
			ds, err := colarm.ReadCSV(name, bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env, err := colarm.Open(ds, colarm.Options{PrimarySupport: spec.Primary})
				if err != nil {
					b.Fatal(err)
				}
				if env.NumPartitions() == 0 {
					b.Fatal("empty index")
				}
			}
		})
	}
}

// BenchmarkMine measures the facade's end-to-end query path — the
// observability hot path. The "plain" variant is the tracing-disabled
// baseline the instrumentation must not slow down; "traced" shows the
// per-query cost of span recording. "chess-mip" and "chess-arm" answer
// chess @ 0.70 over the whole domain (2 630 rules) with forced SS-E-U-V
// and ARM: their B/op is what a query allocates once its scratch is
// recycled, almost all of it the returned rules.
func BenchmarkMine(b *testing.B) {
	ds, err := colarm.Salary()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.18})
	if err != nil {
		b.Fatal(err)
	}
	q := colarm.Query{
		Range:          map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}},
		ItemAttributes: []string{"Age", "Salary"},
		MinSupport:     0.70,
		MinConfidence:  0.95,
	}
	for _, traced := range []bool{false, true} {
		name := "plain"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			bq := q
			bq.Trace = traced
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Mine(bq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	d, err := datagen.Generate(datagen.ChessConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	chess, err := colarm.ReadCSV("chess", &buf)
	if err != nil {
		b.Fatal(err)
	}
	if eng, err = colarm.Open(chess, colarm.Options{PrimarySupport: 0.70}); err != nil {
		b.Fatal(err)
	}
	for _, p := range []colarm.Plan{colarm.SSEUV, colarm.ARM} {
		name := "chess-mip"
		if p == colarm.ARM {
			name = "chess-arm"
		}
		b.Run(name, func(b *testing.B) {
			cq := colarm.Query{MinSupport: 0.80, MinConfidence: 0.9, MaxConsequent: 1, Plan: p}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Mine(cq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
