// Command colarm-bench regenerates the tables and figures of the COLARM
// paper's experimental evaluation (EDBT 2014, Section 5).
//
// Usage:
//
//	colarm-bench [flags]
//
//	-fig N        regenerate one figure (8, 9, 10, 11, 12 or 13)
//	-table NAME   regenerate a table: "accuracy" (§5.1) or "simpson" (§5.3)
//	-all          run everything (default when no -fig/-table given)
//	-full         paper-scale datasets and thresholds (slower);
//	              default is the reduced profile with the same shapes
//	-runs N       random focal subsets per scenario (default 3)
//	-seed N       generator seed (default 1)
//
// Beyond the paper's artifacts, -concurrent runs the serving-mode
// benchmark: a fixed query workload replayed from N client goroutines
// against one shared engine, comparing the serial baseline against
// intra-query parallelism (the Workers pool), inter-query concurrency
// (many clients), and both, with throughput and p50/p99 latency:
//
//	-concurrent   run the concurrent-clients benchmark
//	-clients N    client goroutines (default GOMAXPROCS)
//	-queries N    queries per client in the N-client rows (default 8)
//
// -ingest runs the mixed read/write benchmark for the live-ingestion
// subsystem: the same read workload is replayed against the fresh
// index, again while a writer streams ingest batches into the delta
// store (reads pay the merged base+delta view), and once more after
// the index rebuild — making the staleness tax, the refresh policy's
// own overhead estimate and the rebuild payoff visible side by side:
//
//	-ingest           run the mixed read/write benchmark
//	-ingest-batches N ingest batches in the mixed phase (default 16)
//	-batch-rows N     rows per ingest batch (default 32)
//
// -tidset runs the tidset representation micro-benchmark: the SELECT /
// ELIMINATE / VERIFY operator kernels plus resident bytes, measured on
// dense (pre-hybrid bitmap) and hybrid (array/bitmap/run container)
// tidsets across sparsity levels and layouts. The JSON report is the
// repository's perf-trajectory artifact format (BENCH_<pr>.json):
//
//	-tidset           run the tidset representation benchmark
//	-tidset-records N universe size in records (default 1<<20)
//	-tidset-items N   item tidsets per density level (default 48)
//	-tidset-iters N   timing iterations per kernel (default 5)
//	-bench-out FILE   write the JSON report to FILE
//
// -shards runs the scatter-gather benchmark: the same read workload is
// replayed against engines built with increasing shard counts — fresh,
// aged by ingest batches, while a consolidation runs (the engine keeps
// serving; only drifted shards re-mine), and on the consolidated
// result — charting shard count against query latency and rebuild
// pause:
//
//	-shards           run the scatter-gather benchmark
//	-shard-counts L   comma-separated shard counts (default 1,2,4,8)
//
// -standing runs the standing-query benchmark: S standing queries are
// registered over one dataset while a writer streams ingest batches
// through it, measuring ingest-to-notify latency at the subscribers
// and the per-diff incremental cost against the naive baseline of one
// full re-mine per subscription per batch:
//
//	-standing           run the standing-query benchmark
//	-standing-subs L    comma-separated subscription counts (default 1,4,16)
//	-standing-dataset D dataset: "salary" or "mushroom" (default mushroom)
//
// -advisor runs the self-tuning optimizer benchmark: first the online
// recalibration loop (plan-choice accuracy and mean latency over the
// same mushroom workload under the static unit costs, then again after
// the guardrailed recalibrator has evaluated the observed operator
// timings), then the index advisor on a skewed workload of localized
// low-support queries the base index forces to ARM — before and after
// the advisor's recommended secondary MIP-index is built:
//
//	-advisor            run the self-tuning optimizer benchmark
//	-advisor-queries N  queries per workload phase (default 24)
//
// Observability flags:
//
//	-metrics ADDR       serve engine metrics (Prometheus text format) at
//	                    http://ADDR/metrics and the pprof profiles at
//	                    http://ADDR/debug/pprof/ for the run's duration
//	-accuracy-online    measure the optimizer's plan-choice accuracy the
//	                    online way: trace random queries, re-execute all
//	                    six plans per query, score the choice against the
//	                    empirically cheapest plan (engine accuracy
//	                    trackers, distinct from the §5.1 table's offline
//	                    replay)
//	-accuracy-queries N traced queries for -accuracy-online (default 120)
//
// Absolute times differ from the paper's C++/2010-era hardware numbers;
// the reproduced quantities are the shapes: which plans win where, the
// optimizer's accuracy, and the local-vs-global CFI structure.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"colarm/internal/bench"
	"colarm/internal/obs"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (8-13)")
		table      = flag.String("table", "", `table to regenerate ("accuracy" or "simpson")`)
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-scale profile")
		runs       = flag.Int("runs", 3, "random focal subsets per scenario")
		seed       = flag.Int64("seed", 1, "dataset generator seed")
		concurrent = flag.Bool("concurrent", false, "run the concurrent-clients serving benchmark")
		clients    = flag.Int("clients", runtime.GOMAXPROCS(0), "client goroutines for -concurrent and -ingest")
		queries    = flag.Int("queries", 8, "queries per client for -concurrent and -ingest")
		ingest     = flag.Bool("ingest", false, "run the mixed read/write (live ingestion) benchmark")
		batches    = flag.Int("ingest-batches", 16, "ingest batches in the -ingest mixed phase")
		batchRows  = flag.Int("batch-rows", 32, "rows per ingest batch for -ingest")
		metrics    = flag.String("metrics", "", "serve /metrics and /debug/pprof/ at this address during the run")
		accOnline  = flag.Bool("accuracy-online", false, "measure plan-choice accuracy via traced queries + all-plan replay")
		accQueries = flag.Int("accuracy-queries", 120, "traced queries for -accuracy-online")
		tidset     = flag.Bool("tidset", false, "run the tidset representation benchmark (dense vs hybrid)")
		tidsetRecs = flag.Int("tidset-records", 1<<20, "universe size (records) for -tidset")
		tidsetItem = flag.Int("tidset-items", 48, "item tidsets per density level for -tidset")
		tidsetIter = flag.Int("tidset-iters", 5, "timing iterations per kernel for -tidset (minimum is reported)")
		shards     = flag.Bool("shards", false, "run the scatter-gather benchmark (shard count vs latency vs rebuild pause)")
		shardKs    = flag.String("shard-counts", "1,2,4,8", "comma-separated shard counts for -shards")
		standing   = flag.Bool("standing", false, "run the standing-query benchmark (ingest-to-notify latency, diff vs full re-mine)")
		standSubs  = flag.String("standing-subs", "1,4,16", "comma-separated subscription counts for -standing")
		standData  = flag.String("standing-dataset", "mushroom", `dataset for -standing ("salary" or "mushroom")`)
		advisorRun = flag.Bool("advisor", false, "run the self-tuning optimizer benchmark (recalibration + index advisor)")
		advisorQs  = flag.Int("advisor-queries", 24, "queries per workload phase for -advisor")
		index      = flag.Bool("index", false, "run the MIP-index physical-layer benchmark (closure, lookup and R-tree kernels; sharded consolidation)")
		indexProbe = flag.Int("index-probes", 4096, "probe operations per kernel for -index")
		indexIters = flag.Int("index-iters", 5, "timing rounds per kernel for -index (minimum is reported)")
		benchOut   = flag.String("bench-out", "", "write the -tidset, -shards, -index, -standing or -advisor report as JSON to this file (e.g. BENCH_10.json)")
	)
	flag.Parse()
	if *advisorRun {
		if err := runAdvisor(*full, *advisorQs, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "colarm-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *standing {
		if err := runStanding(*standData, *standSubs, *batches, *batchRows, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "colarm-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *index {
		if err := runIndex(*shardKs, *full, *indexProbe, *indexIters, *batches, *batchRows, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "colarm-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *tidset {
		if err := runTidset(*tidsetRecs, *tidsetItem, *tidsetIter, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "colarm-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *shards {
		if err := runShards(*shardKs, *full, *clients, *queries, *batches, *batchRows, *seed, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "colarm-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, *table, *all, *full, *runs, *seed, *concurrent, *clients, *queries,
		*ingest, *batches, *batchRows, *metrics, *accOnline, *accQueries); err != nil {
		fmt.Fprintln(os.Stderr, "colarm-bench:", err)
		os.Exit(1)
	}
}

// runAdvisor runs the self-tuning optimizer benchmark (recalibration
// accuracy/latency plus the skewed-workload secondary-index win) and
// optionally persists the JSON report (BENCH_<pr>.json).
func runAdvisor(full bool, queries int, seed int64, out string) error {
	if queries < 1 {
		return fmt.Errorf("-advisor-queries must be positive")
	}
	rep, err := bench.RunAdvisor(full, queries, seed)
	if err != nil {
		return err
	}
	bench.PrintAdvisor(os.Stdout, rep)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// runStanding runs the standing-query benchmark (ingest-to-notify
// latency and per-diff cost against the full re-mine baseline) and
// optionally persists the JSON report (BENCH_<pr>.json).
func runStanding(dataset, counts string, batches, batchRows int, seed int64, out string) error {
	subs, err := parseCounts(counts)
	if err != nil {
		return err
	}
	rep, err := bench.RunStanding(dataset, subs, batches, batchRows, seed)
	if err != nil {
		return err
	}
	bench.PrintStanding(os.Stdout, rep)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// runTidset runs the dense-vs-hybrid tidset benchmark and optionally
// persists the JSON report (the repository's BENCH_<pr>.json perf
// trajectory format).
func runTidset(records, items, iters int, seed int64, out string) error {
	rep := bench.RunTidset(records, items, iters, seed)
	bench.PrintTidset(os.Stdout, rep)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// runIndex runs the MIP-index physical-layer benchmark (the
// closure/lookup/R-tree kernels plus the sharded consolidation cycle)
// and optionally persists the JSON report (BENCH_<pr>.json).
func runIndex(counts string, full bool, probes, iters, batches, batchRows int, seed int64, out string) error {
	ks, err := parseCounts(counts)
	if err != nil {
		return err
	}
	spec, err := bench.SpecByName(bench.Specs(full, seed), "mushroom")
	if err != nil {
		return err
	}
	rep, err := bench.RunIndex(spec, ks, probes, iters, batches, batchRows, seed)
	if err != nil {
		return err
	}
	bench.PrintIndex(os.Stdout, rep)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// parseCounts parses a comma-separated shard-count list.
func parseCounts(counts string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(counts, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -shard-counts entry %q", part)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-shard-counts selected no shard counts")
	}
	return ks, nil
}

// runShards runs the scatter-gather benchmark over the given shard
// counts and optionally persists the JSON report (BENCH_<pr>.json).
func runShards(counts string, full bool, clients, perClient, batches, batchRows int, seed int64, out string) error {
	ks, err := parseCounts(counts)
	if err != nil {
		return err
	}
	spec, err := bench.SpecByName(bench.Specs(full, seed), "mushroom")
	if err != nil {
		return err
	}
	rep, err := bench.RunShards(spec, ks, clients, perClient, batches, batchRows, seed)
	if err != nil {
		return err
	}
	bench.PrintShards(os.Stdout, rep)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

func run(fig int, table string, all, full bool, runs int, seed int64, concurrent bool, clients, perClient int,
	ingest bool, batches, batchRows int, metricsAddr string, accOnline bool, accQueries int) error {
	if fig == 0 && table == "" && !concurrent && !ingest && !accOnline {
		all = true
	}
	// Ctrl-C aborts the query mid-operator instead of waiting out a
	// paper-scale mining run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	reg := obs.NewRegistry()
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "colarm-bench: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("serving metrics at http://%s/metrics (pprof at /debug/pprof/)\n", metricsAddr)
	}
	specs := bench.Specs(full, seed)
	profile := "reduced"
	if full {
		profile = "paper-scale"
	}
	fmt.Printf("COLARM experiment harness — %s profile, seed %d, %d runs/scenario\n\n", profile, seed, runs)

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
		e, err := bench.SetupWith(spec, reg)
		if err != nil {
			return nil, err
		}
		fmt.Printf("[setup] %s: %d records, %d MIPs at primary %.0f%% (%.1fs)\n",
			name, e.Dataset.NumRecords(), e.Engine.Index.NumMIPs(), 100*spec.Primary,
			time.Since(start).Seconds())
		envs[name] = e
		return e, nil
	}

	datasets := []string{"chess", "mushroom", "pumsb"}
	figForDataset := map[string]int{"chess": 9, "mushroom": 10, "pumsb": 11}

	// Figure 8.
	if all || fig == 8 {
		fmt.Println()
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			rows, err := e.RunFig8()
			if err != nil {
				return err
			}
			bench.PrintFig8(os.Stdout, name, rows)
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
			fmt.Printf("Figure %d:\n", figForDataset[name])
			bench.PrintPlanGrid(os.Stdout, name, cells)
		}
		gainRows = append(gainRows, bench.Gains(name, cells))
	}
	if wantGains && len(gainRows) > 0 {
		bench.PrintGains(os.Stdout, gainRows)
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
		bench.PrintAccuracy(os.Stdout, results, 0.05)
	}

	// Online plan-choice accuracy: traced queries scored against
	// ground-truth all-plan executions through the engines' running
	// accuracy trackers.
	if accOnline {
		perDataset := (accQueries + len(datasets) - 1) / len(datasets)
		fmt.Printf("\nOnline plan-choice accuracy (%d traced queries per dataset, 5%% regret tolerance):\n", perDataset)
		totQ, totC := 0, 0
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			spec := e.Spec
			rng := rand.New(rand.NewSource(seed + 500))
			for n := 0; n < perDataset; n++ {
				regn := e.RandomFocalSubset(rng, spec.DQFracs[n%len(spec.DQFracs)])
				q := e.QueryFor(regn, spec.MinSupps[n%len(spec.MinSupps)], spec.MinConfs[n%len(spec.MinConfs)])
				q.Trace = &obs.Trace{}
				if _, _, err := e.Engine.MineContext(ctx, q); err != nil {
					return err
				}
				if _, err := e.Engine.EvaluatePlans(q); err != nil {
					return err
				}
			}
			rep := e.Engine.Accuracy.Report()
			fmt.Printf("  %-10s %4d queries  accuracy %5.1f%%  (worst miss regret %.0f%%)\n",
				name, rep.Queries, 100*rep.Accuracy(), 100*rep.MissRegretMax)
			totQ += rep.Queries
			totC += rep.Correct
		}
		if totQ > 0 {
			fmt.Printf("  %-10s %4d queries  accuracy %5.1f%%\n", "overall", totQ, 100*float64(totC)/float64(totQ))
		}
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
			bench.PrintFig13(os.Stdout, name, rows)
		}
	}

	// Concurrent-clients serving benchmark.
	if all || concurrent {
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			spec := e.Spec
			rows, err := e.ConcurrencyMatrix(clients, perClient,
				spec.MinSupps[0], spec.MinConfs[0], seed+400)
			if err != nil {
				return err
			}
			bench.PrintConcurrent(os.Stdout, name, rows)
		}
	}

	// Mixed read/write (live ingestion) benchmark. Run on demand only —
	// it leaves each engine's delta store populated, so it is kept out
	// of -all and ordered after the paper artifacts.
	if ingest {
		for _, name := range datasets {
			e, err := env(name)
			if err != nil {
				return err
			}
			spec := e.Spec
			res, err := e.RunIngestMix(clients, perClient, batches, batchRows,
				spec.MinSupps[0], spec.MinConfs[0], seed+600)
			if err != nil {
				return err
			}
			bench.PrintIngest(os.Stdout, res)
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
		bench.PrintSimpson(os.Stdout, rep)
	}
	return nil
}
