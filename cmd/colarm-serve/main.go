// Command colarm-serve is the COLARM query service: it builds (or
// loads) MIP-indexes for a set of named datasets at startup, then
// serves localized mining queries over HTTP with per-request deadlines,
// admission control and a canonical-form result cache.
//
// Usage:
//
//	colarm-serve -datasets salary,chess [flags]
//	colarm-serve -snapshot sales=/data/sales.idx -snapshot web=/data/web.idx
//
//	-addr ADDR        listen address (default :8080)
//	-datasets LIST    comma-separated builtin datasets to build at
//	                  startup: salary, chess, mushroom, pumsb
//	-snapshot N=P     load the index snapshot at path P as dataset N
//	                  (repeatable; written by Engine.SaveFile)
//	-csv PATH         build an index over a headed CSV file (repeatable;
//	                  dataset name = file base name)
//	-primary P        primary support for -csv datasets (default 0.1;
//	                  builtins use their per-dataset defaults)
//	-seed N           generator seed for builtin synthetic datasets
//	-workers N        per-query worker pool bound (0 = GOMAXPROCS)
//	-calibrate        micro-benchmark the cost model's unit costs
//	-shards K         hash-partition each dataset into K shards; queries
//	                  scatter-gather with exact recombination and
//	                  /v1/datasets reports per-shard staleness (0 or 1 =
//	                  monolithic)
//	-max-inflight N   concurrent mining queries (default 8)
//	-max-queue N      admission wait-queue length (default 32)
//	-queue-wait D     max time in the admission queue (default 2s)
//	-query-timeout D  per-query deadline (default 30s)
//	-cache-entries N  result-cache capacity (default 4096, -1 disables)
//	-cache-ttl D      result-cache entry lifetime (default 5m)
//
//	-max-subscriptions N  standing-query subscriptions served at once
//	                      (default 1024)
//	-sub-buffer N         buffered events per subscription before a slow
//	                      consumer is evicted (default 256)
//	-sse-heartbeat D      idle-stream SSE heartbeat interval (default 15s)
//
// Endpoints: POST /v1/mine, POST /v1/explain, POST /v1/ingest,
// GET /v1/datasets, GET /v1/datasets/{name},
// POST/GET /v1/subscriptions, GET/DELETE /v1/subscriptions/{id},
// GET /v1/subscriptions/{id}/events (SSE or long-poll), GET /metrics,
// GET /debug/pprof/. The full surface is documented in api/openapi.yaml. Ingested transactions are buffered
// in each engine's delta store and merged into every subsequent answer
// (queries stay exact while the index ages); when the accumulated delta
// overhead crosses the rebuild cost, the server rebuilds the index in
// the background and swaps it in, bumping the dataset's generation.
// Standing subscriptions receive incremental rule diffs as batches
// land. Wrong-method requests on /v1 routes get a JSON 405 with an
// Allow header; every error response carries the structured envelope.
// See the README's Serving, Ingestion and Standing queries sections for
// request examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"colarm"
	"colarm/internal/server"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (f *listFlag) String() string     { return strings.Join(*f, ",") }
func (f *listFlag) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		datasets = flag.String("datasets", "", "comma-separated builtin datasets (salary, chess, mushroom, pumsb)")
		primary  = flag.Float64("primary", 0.1, "primary support for -csv datasets")
		seed     = flag.Int64("seed", 1, "generator seed for builtin synthetic datasets")
		workers  = flag.Int("workers", 0, "per-query worker pool bound (0 = GOMAXPROCS)")
		calib    = flag.Bool("calibrate", false, "micro-benchmark the cost model's unit costs")
		shards   = flag.Int("shards", 0, "hash-partition each dataset into K shards (0 or 1 = monolithic)")

		maxInFlight  = flag.Int("max-inflight", 0, "concurrent mining queries (0 = default 8)")
		maxQueue     = flag.Int("max-queue", 0, "admission wait-queue length (0 = default 32)")
		queueWait    = flag.Duration("queue-wait", 0, "max time in the admission queue (0 = default 2s)")
		queryTimeout = flag.Duration("query-timeout", 0, "per-query deadline (0 = default 30s, negative disables)")
		cacheEntries = flag.Int("cache-entries", 0, "result-cache capacity (0 = default 4096, negative disables)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "result-cache entry lifetime (0 = default 5m)")

		maxSubs      = flag.Int("max-subscriptions", 0, "standing-query subscriptions served at once (0 = default 1024)")
		subBuffer    = flag.Int("sub-buffer", 0, "buffered events per subscription before slow-consumer eviction (0 = default 256)")
		sseHeartbeat = flag.Duration("sse-heartbeat", 0, "idle-stream SSE heartbeat interval (0 = default 15s)")
	)
	var snapshots, csvs listFlag
	flag.Var(&snapshots, "snapshot", "name=path of an index snapshot to load (repeatable)")
	flag.Var(&csvs, "csv", "headed CSV file to index (repeatable)")
	flag.Parse()

	if err := run(*addr, *datasets, snapshots, csvs, *primary, *seed, *workers, *calib, *shards, server.Config{
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		QueryTimeout: *queryTimeout,
		CacheEntries: *cacheEntries,
		CacheTTL:     *cacheTTL,

		MaxSubscriptions:   *maxSubs,
		SubscriptionBuffer: *subBuffer,
		SSEHeartbeat:       *sseHeartbeat,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "colarm-serve:", err)
		os.Exit(1)
	}
}

func run(addr, datasets string, snapshots, csvs []string, primary float64, seed int64, workers int, calibrate bool, shards int, cfg server.Config) error {
	metrics := colarm.NewMetricsRegistry()
	opts := colarm.Options{Workers: workers, Calibrate: calibrate, Metrics: metrics, Shards: shards}
	reg := server.NewRegistry()
	registered := 0

	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ds, defPrimary, err := builtinDataset(name, seed)
		if err != nil {
			return err
		}
		o := opts
		o.PrimarySupport = defPrimary
		if err := open(reg, ds, o); err != nil {
			return fmt.Errorf("dataset %s: %w", name, err)
		}
		registered++
	}
	for _, spec := range snapshots {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -snapshot %q (want name=path)", spec)
		}
		start := time.Now()
		eng, err := colarm.LoadEngineFile(path, opts)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", name, err)
		}
		if got := eng.Dataset().Name(); got != name {
			return fmt.Errorf("snapshot %s: holds dataset %q", path, got)
		}
		reg.Register(eng)
		fmt.Fprintf(os.Stderr, "loaded %q from %s: %d partitions in %s\n",
			name, path, eng.NumPartitions(), time.Since(start).Round(time.Millisecond))
		registered++
	}
	for _, path := range csvs {
		ds, err := colarm.LoadCSV(path)
		if err != nil {
			return fmt.Errorf("csv %s: %w", path, err)
		}
		o := opts
		o.PrimarySupport = primary
		if err := open(reg, ds, o); err != nil {
			return fmt.Errorf("csv %s: %w", filepath.Base(path), err)
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("nothing to serve: pass -datasets, -snapshot or -csv")
	}

	cfg.EngineMetrics = metrics
	srv := server.New(reg, cfg)
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	// Shutdown waits for every open connection, and an event stream stays
	// open until its subscription ends: closing the server ends them all.
	httpSrv.RegisterOnShutdown(srv.Close)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serving %d dataset(s) on %s\n", registered, addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

func open(reg *server.Registry, ds *colarm.Dataset, opts colarm.Options) error {
	start := time.Now()
	eng, err := colarm.Open(ds, opts)
	if err != nil {
		return err
	}
	reg.Register(eng)
	fmt.Fprintf(os.Stderr, "built %q (%d records, %d attributes): %d partitions in %s\n",
		ds.Name(), ds.NumRecords(), ds.NumAttributes(), eng.NumPartitions(),
		time.Since(start).Round(time.Millisecond))
	return nil
}

func builtinDataset(name string, seed int64) (*colarm.Dataset, float64, error) {
	switch name {
	case "salary":
		ds, err := colarm.Salary()
		return ds, 0.18, err
	case "chess":
		ds, err := colarm.GenerateChess(seed)
		return ds, 0.60, err
	case "mushroom":
		ds, err := colarm.GenerateMushroom(seed)
		return ds, 0.05, err
	case "pumsb":
		ds, err := colarm.GeneratePUMSB(seed)
		return ds, 0.80, err
	default:
		return nil, 0, fmt.Errorf("unknown builtin dataset %q", name)
	}
}
