// Command colarm is an interactive localized association rule miner: it
// loads (or generates) a relational dataset, builds the MIP-index, and
// answers queries written in the paper's query language.
//
// Usage:
//
//	colarm -dataset salary [flags]             # built-in datasets
//	colarm -csv data.csv -primary 0.1 [flags]  # your own data
//
//	-dataset NAME   builtin dataset: salary, chess, mushroom, pumsb
//	-csv PATH       load a headed CSV instead (all columns nominal)
//	-primary P      primary support threshold for the index (default
//	                per-dataset for builtins, 0.1 for CSV)
//	-query Q        run one query and exit (otherwise reads stdin)
//	-explain        also print the optimizer's per-plan cost estimates,
//	                and the unit costs they were priced with
//	-trace          print the per-operator execution trace of each query
//	-measures       print lift/cosine/kulczynski for each rule
//	-limit N        print at most N rules (default 25, 0 = all)
//	-seed N         generator seed for builtin synthetic datasets
//
// Example session:
//
//	$ colarm -dataset salary
//	colarm> REPORT LOCALIZED ASSOCIATION RULES FROM salary
//	     -> WHERE RANGE Location = (Seattle), Gender = (F)
//	     -> AND ITEM ATTRIBUTES Age, Salary
//	     -> HAVING minsupport = 70% AND minconfidence = 95%;
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"colarm"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "builtin dataset: salary, chess, mushroom, pumsb")
		csvPath  = flag.String("csv", "", "load a headed CSV file")
		primary  = flag.Float64("primary", 0, "primary support threshold (0 = per-dataset default)")
		query    = flag.String("query", "", "run one query and exit")
		explain  = flag.Bool("explain", false, "print per-plan cost estimates")
		trace    = flag.Bool("trace", false, "print per-operator execution traces")
		measures = flag.Bool("measures", false, "print extra interestingness measures")
		limit    = flag.Int("limit", 25, "max rules to print (0 = all)")
		seed     = flag.Int64("seed", 1, "generator seed for synthetic datasets")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataset, *csvPath, *primary, *query, opts{*explain, *trace, *measures, *limit}, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "colarm:", err)
		os.Exit(1)
	}
}

// opts bundles the per-query output switches.
type opts struct {
	explain  bool
	trace    bool
	measures bool
	limit    int
}

// run builds the engine and answers one query, or a session read from
// stdin, writing answers to w; progress and prompts go to stderr.
func run(w io.Writer, dataset, csvPath string, primary float64, query string, o opts, seed int64) error {
	ds, defPrimary, err := loadDataset(dataset, csvPath, seed)
	if err != nil {
		return err
	}
	if primary == 0 {
		primary = defPrimary
	}
	fmt.Fprintf(os.Stderr, "building MIP-index over %q (%d records, %d attributes) at primary support %.1f%%...\n",
		ds.Name(), ds.NumRecords(), ds.NumAttributes(), 100*primary)
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: primary})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "index ready: %d multidimensional itemset partitions\n", eng.NumPartitions())

	if query != "" {
		return execute(context.Background(), w, eng, query, o)
	}
	return repl(w, eng, o)
}

func loadDataset(dataset, csvPath string, seed int64) (*colarm.Dataset, float64, error) {
	switch {
	case csvPath != "":
		ds, err := colarm.LoadCSV(csvPath)
		return ds, 0.1, err
	case dataset == "salary" || dataset == "":
		ds, err := colarm.Salary()
		return ds, 0.18, err
	case dataset == "chess":
		ds, err := colarm.GenerateChess(seed)
		return ds, 0.60, err
	case dataset == "mushroom":
		ds, err := colarm.GenerateMushroom(seed)
		return ds, 0.05, err
	case dataset == "pumsb":
		ds, err := colarm.GeneratePUMSB(seed)
		return ds, 0.80, err
	default:
		return nil, 0, fmt.Errorf("unknown dataset %q", dataset)
	}
}

func repl(w io.Writer, eng *colarm.Engine, o opts) error {
	fmt.Fprintln(os.Stderr, `enter queries terminated by ';' ("\schema" lists attributes, "\q" quits)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(os.Stderr, "colarm> ")
		} else {
			fmt.Fprint(os.Stderr, "     -> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case buf.Len() == 0 && (line == `\q` || line == "quit" || line == "exit"):
			return nil
		case buf.Len() == 0 && line == `\schema`:
			printSchema(w, eng)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			q := buf.String()
			buf.Reset()
			if err := execute(context.Background(), w, eng, q, o); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
	return sc.Err()
}

// printUnits shows the unit costs the estimates above were computed
// with.
func printUnits(w io.Writer, eng *colarm.Engine) {
	u := eng.UnitCosts()
	fmt.Fprintf(w, "unit costs: wordOp %.2f  boxRel %.2f  idProbe %.2f  mapOp %.2f  genOp %.2f ns\n",
		u.WordOp, u.BoxRel, u.IDProbe, u.MapOp, u.GenOp)
}

func printSchema(w io.Writer, eng *colarm.Engine) {
	ds := eng.Dataset()
	for _, attr := range ds.Attributes() {
		vals, _ := ds.Values(attr)
		sort.Strings(vals)
		fmt.Fprintf(w, "  %-20s %s\n", attr, strings.Join(vals, ", "))
	}
}

func execute(ctx context.Context, w io.Writer, eng *colarm.Engine, query string, o opts) error {
	q, err := eng.ParseQuery(query)
	if err != nil {
		return err
	}
	q.Trace = o.trace
	// Ctrl-C aborts the running query (mid-operator, via the engine's
	// context checks) without killing an interactive session.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	res, err := eng.MineContext(ctx, q)
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("query interrupted")
	}
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(w, "plan %s | subset %d records | %d candidates (%d contained, %d partial) | %d rules | %.2fms\n",
		st.Plan, st.SubsetSize, st.Candidates, st.Contained, st.PartialOverlap,
		st.RulesEmitted, float64(st.DurationNanos)/1e6)
	if o.trace && res.Trace != nil {
		fmt.Fprint(w, res.Trace.Tree())
	}
	if o.explain && len(res.Estimates) > 0 {
		fmt.Fprintln(w, "optimizer estimates:")
		ests := append([]colarm.PlanEstimate(nil), res.Estimates...)
		sort.Slice(ests, func(i, j int) bool { return ests[i].Cost < ests[j].Cost })
		for _, e := range ests {
			fmt.Fprintf(w, "  %-10s cost %12.0f  candidates %8.0f  qualified %8.0f\n",
				e.Plan, e.Cost, e.Candidates, e.Qualified)
		}
		printUnits(w, eng)
	}
	for i, r := range res.Rules {
		if o.limit > 0 && i >= o.limit {
			fmt.Fprintf(w, "  ... and %d more rules\n", len(res.Rules)-o.limit)
			break
		}
		fmt.Fprintf(w, "  %s", r)
		if o.measures {
			fmt.Fprintf(w, "  lift=%.2f cosine=%.2f kulc=%.2f", r.Lift, r.Cosine, r.Kulczynski)
		}
		fmt.Fprintln(w)
	}
	return nil
}
