// Command colarm-bench regenerates the tables and figures of the COLARM
// paper's experimental evaluation (EDBT 2014, Section 5).
//
// Usage:
//
//	colarm-bench [flags]
//
//	-fig N        regenerate one figure (8, 9, 10, 11, 12 or 13)
//	-table NAME   regenerate a table: "accuracy" (§5.1) or "simpson" (§5.3)
//	-full         paper-scale datasets and thresholds (slower);
//	              default is the reduced profile with the same shapes
//	-runs N       random focal subsets per scenario (default 3)
//	-seed N       generator seed (default 1)
//
// Without -fig or -table every experiment runs (E1-E8 of EXPERIMENTS.md).
//
// Absolute times differ from the paper's C++/2010-era hardware numbers;
// the reproduced quantities are the shapes: which plans win where, the
// optimizer's accuracy, and the local-vs-global CFI structure.
//
// This command reproduces the paper and nothing else. Performance is
// measured end to end by benchmark/ (see benchmark/README.md) and per
// kernel by `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"colarm/internal/bench"
)

func main() {
	var (
		fig   = flag.Int("fig", 0, "figure to regenerate (8-13)")
		table = flag.String("table", "", `table to regenerate ("accuracy" or "simpson")`)
		full  = flag.Bool("full", false, "paper-scale profile")
		runs  = flag.Int("runs", 3, "random focal subsets per scenario")
		seed  = flag.Int64("seed", 1, "dataset generator seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *fig, *table, *full, *runs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "colarm-bench:", err)
		os.Exit(1)
	}
}

// run writes the selected experiments to w; fig == 0 and table == ""
// together select all of them.
func run(w io.Writer, fig int, table string, full bool, runs int, seed int64) error {
	if fig != 0 && (fig < 8 || fig > 13) {
		return fmt.Errorf("-fig %d: the paper's figures are 8 to 13", fig)
	}
	if table != "" && table != "accuracy" && table != "simpson" {
		return fmt.Errorf(`-table %q: want "accuracy" or "simpson"`, table)
	}
	if runs < 1 {
		return fmt.Errorf("-runs must be positive")
	}
	all := fig == 0 && table == ""
	specs := bench.Specs(full, seed)
	profile := "reduced"
	if full {
		profile = "paper-scale"
	}
	fmt.Fprintf(w, "COLARM experiment harness — %s profile, seed %d, %d runs/scenario\n\n", profile, seed, runs)

	envs := map[string]*bench.Env{}
	env := func(name string) (*bench.Env, error) {
		if e, ok := envs[name]; ok {
			return e, nil
		}
		spec, err := bench.SpecByName(specs, name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		e, err := bench.Setup(spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "[setup] %s: %d records, %d MIPs at primary %.0f%% (%.1fs)\n",
			name, e.Dataset.NumRecords(), e.Index.NumMIPs(), 100*spec.Primary,
			time.Since(start).Seconds())
		envs[name] = e
		return e, nil
	}

	datasets := []string{"chess", "mushroom", "pumsb"}
	figForDataset := map[string]int{"chess": 9, "mushroom": 10, "pumsb": 11}

	// Figure 8.
	if all || fig == 8 {
		fmt.Fprintln(w)
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			rows, err := e.RunFig8()
			if err != nil {
				return err
			}
			bench.PrintFig8(w, name, rows)
		}
	}

	// Figures 9-11 (+12 aggregates from the same cells).
	var gainRows []bench.GainRow
	wantGains := all || fig == 12
	for _, name := range datasets {
		if !(all || fig == figForDataset[name] || wantGains) {
			continue
		}
		e, err := env(name)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed + 100))
		cells, err := e.RunPlanGrid(0.85, runs, rng)
		if err != nil {
			return err
		}
		if all || fig == figForDataset[name] {
			fmt.Fprintf(w, "Figure %d:\n", figForDataset[name])
			bench.PrintPlanGrid(w, name, cells)
		}
		gainRows = append(gainRows, bench.Gains(name, cells))
	}
	if wantGains && len(gainRows) > 0 {
		bench.PrintGains(w, gainRows)
	}

	// Accuracy table (§5.1).
	if all || table == "accuracy" {
		var results []bench.AccuracyResult
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(seed + 200))
			res, err := e.RunAccuracy(runs, 0.05, rng)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		bench.PrintAccuracy(w, results, 0.05)
	}

	// Figure 13.
	if all || fig == 13 {
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(seed + 300))
			rows := e.RunLocalVsGlobal(runs, rng)
			bench.PrintFig13(w, name, rows)
		}
	}

	// Simpson anecdote (§5.3).
	if all || table == "simpson" {
		e, err := env("mushroom")
		if err != nil {
			return err
		}
		// The mushroom generator plants subpopulation patterns inside
		// m01 = m011 (mirroring the stalk-shape=tapering anecdote).
		rep, err := e.RunSimpson("m01", "m011", 0.69, 0.45, 8)
		if err != nil {
			return err
		}
		bench.PrintSimpson(w, rep)
	}
	return nil
}
