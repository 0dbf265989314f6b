// Command benchmark is COLARM's one served, layer-attributed benchmark:
// it builds the datasets and engines, starts the real internal/server
// handler on a loopback listener, drives one of four closed-loop
// workloads over HTTP from a seed-generated request list, checks every
// answer, and prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// options are one run's settings, all from flags: the program under
// test receives only generated inputs.
type options struct {
	seed     int64
	seconds  float64
	quick    bool
	trace    bool
	traceOut string
	clients  int
	// reps is how many times an untraced run sets the system up;
	// setup_s is the median.
	reps int
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// runner is one workload: its untraced run (end-to-end metrics) and
// its traced run (per-layer metrics).
type runner struct {
	name  string
	run   func(options) (*result, error)
	trace func(options) (*result, error)
}

func runners() []runner {
	var rs []runner
	for _, w := range mineWorkloads {
		rs = append(rs, runner{w.name, w.run, w.traced})
	}
	return append(rs, runner{"ingest_notify", runIngestNotify, traceIngestNotify})
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "all", "workload to run: mine_mip, mine_auto, mine_hot, ingest_notify or all")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out      = flag.String("out", "", "append one machine-readable JSON record per workload run to this file")
		compare  = flag.Bool("compare", false, "compare two -out files (arguments: A.json B.json) against the bounds in BENCHMARK.json")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request lists")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed pass (0: 10, or 2 with -quick)")
	flag.BoolVar(&o.quick, "quick", false, "smoke profile on salary and half-scale mushroom; never for reported numbers")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the recorded spans to this file as JSON")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	o.trace = *trace != 0
	if o.seconds <= 0 {
		o.seconds = 10
		if o.quick {
			o.seconds = 2
		}
	}
	// Two client goroutines on this sandbox's two cores: more would
	// queue on the CPU rather than on the server.
	o.clients = min(runtime.NumCPU(), 4)
	o.reps = setupReps

	failed := false
	ran := 0
	for _, r := range runners() {
		if *workload != "all" && *workload != r.name {
			continue
		}
		ran++
		fn := r.run
		if o.trace {
			fn = r.trace
		}
		res, err := fn(o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		res.print(os.Stdout, o)
		if *out != "" {
			if err := res.appendTo(*out, o); err != nil {
				fatal(err)
			}
		}
		failed = failed || res.failed > 0
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]metric
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]metric{}}
}

// set records a metric; its unit comes from the catalog, which is what
// keeps the program and BENCHMARK.json in step.
func (r *result) set(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// setSetUp records the run's set-ups: the median time, and the
// smallest live heap one left behind. The smallest, because what an
// engine retains after a batch depends on a race — on ingest_notify
// 12 MB of tidset intersections stay alive when a tracker's diff, not
// the read-after-write mine, was first to verify at the last version —
// and the resident cost is what is there either way.
func (r *result) setSetUp(secs, heaps []float64) {
	r.set("setup_s", median(secs), len(secs))
	r.set("heap_after_setup_mb", slices.Min(heaps), len(heaps))
}

// setTimings records a timed run's throughput and latency percentiles
// — its quiet quartile's — where each timed operation stands for perOp
// requests.
func (r *result) setTimings(passes []pass, perOp int) {
	rate, p50, p95, n := quietPass(passes)
	r.set("throughput_rps", float64(perOp)*rate, n)
	r.set("latency_p50_ms", p50, n)
	r.set("latency_p95_ms", p95, n)
}

// print writes the human-readable metric table and, as the last line,
// the JSON object the benchmark contract asks for.
func (r *result) print(w *os.File, o options) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v quick=%v clients=%d\n", r.workload, o.seed, o.seconds, o.trace, o.quick, o.clients)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	if lat, ok := r.metrics["latency_p95_ms"]; ok && tailPercentile(lat.Samples) < 95 {
		fmt.Fprintf(w, "# warning: %d timed samples support only p%g with ten samples beyond it\n", lat.Samples, tailPercentile(lat.Samples))
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", r.firstErr)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]wire{}}
	for n, m := range r.metrics {
		line.Metrics[n] = wire{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintf(w, "%s\n", b)
}

// record is one line of an -out file.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Quick      bool              `json:"quick"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
}

func (r *result) appendTo(path string, o options) error {
	rec := record{
		Workload: r.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
