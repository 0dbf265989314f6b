package main

import "runtime/debug"

// endToEnd names the metrics a user of the system would see; they are
// measured with tracing off and carry a bound in BENCHMARK.json. Every
// other name in units is a per-layer metric of the traced run.
var endToEnd = map[string]bool{
	"setup_s":             true,
	"throughput_rps":      true,
	"latency_p50_ms":      true,
	"latency_p95_ms":      true,
	"alloc_kb_per_req":    true,
	"heap_after_setup_mb": true,
}

// units is the metric catalog: every name the program may report and
// its unit. BENCHMARK.json lists the same names (catalog_test.go holds
// the two in step); README.md says what each one measures.
var units = map[string]string{
	"setup_s":             "s",
	"throughput_rps":      "req/s",
	"latency_p50_ms":      "ms",
	"latency_p95_ms":      "ms",
	"alloc_kb_per_req":    "KB",
	"heap_after_setup_mb": "MB",

	"server.transport_ms":       "ms",
	"server.handler_ms":         "ms",
	"server.self_ms":            "ms",
	"server.resp_kb_per_req":    "KB",
	"server.cache_hit_ratio":    "ratio",
	"server.cache_evictions":    "count",
	"server.admission_queued":   "count",
	"server.admission_rejected": "count",
	"server.ingest_ack_p50_ms":  "ms",

	"colarmql.parse_us":   "us",
	"colarm.canonical_us": "us",
	"colarm.mine_ms":      "ms",
	"colarm.self_ms":      "ms",

	"core.choose_us":        "us",
	"core.chosen_arm_ratio": "ratio",
	"core.rebuild_ms":       "ms",

	"plans.select_ms":              "ms",
	"plans.search_ms":              "ms",
	"plans.eliminate_ms":           "ms",
	"plans.union_ms":               "ms",
	"plans.verify_ms":              "ms",
	"plans.arm_ms":                 "ms",
	"plans.candidates_per_req":     "count",
	"plans.support_checks_per_req": "count",
	"plans.rnodes_per_req":         "count",
	"plans.rules_per_req":          "count",
	"plans.eliminated_ratio":       "ratio",
	"plans.oracle_miss_ratio":      "ratio",

	"rtree.search_us":      "us",
	"ittree.closure_ns":    "ns",
	"ittree.lookup_ns":     "ns",
	"bitset.andcount_ns":   "ns",
	"mip.subset_bitmap_us": "us",
	"mip.build_ms":         "ms",
	"charm.mine_ms":        "ms",

	"delta.apply_us":      "us",
	"delta.view_build_ms": "ms",

	"standing.diff_ms":            "ms",
	"standing.remine_ms":          "ms",
	"standing.notify_first_ms":    "ms",
	"standing.notify_last_ms":     "ms",
	"standing.notify_residual_ms": "ms",
	"standing.events":             "count",
	"standing.diff_skipped":       "count",

	"ingest.mine_p50_ms": "ms",
	"ingest.rows_per_s":  "rows/s",

	"shard.k1_mine_ms":  "ms",
	"shard.k2_mine_ms":  "ms",
	"shard.k2_setup_ms": "ms",

	"runtime.mallocs_per_req": "count",
	"runtime.gc_cycles":       "count",
	"runtime.gc_pause_ms":     "ms",

	"dataset.chess.latency_p50_ms":    "ms",
	"dataset.mushroom.latency_p50_ms": "ms",
	"dataset.pumsb.latency_p50_ms":    "ms",

	"trace.overhead_ratio": "ratio",
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
