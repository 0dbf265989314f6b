package colarm

import (
	"fmt"
	"io"
	"net/http"

	"colarm/internal/obs"
	"colarm/internal/plans"
)

// MetricsRegistry is a shared metrics registry: engines opened with
// Options.Metrics pointing at the same registry expose their cumulative
// metrics — labeled per dataset — through one Prometheus exposition.
// The serving layer opens every registered engine against a single
// shared registry so one /metrics scrape covers the whole process.
type MetricsRegistry struct {
	reg *obs.Registry
}

// NewMetricsRegistry creates an empty shared registry.
func NewMetricsRegistry() *MetricsRegistry {
	return &MetricsRegistry{reg: obs.NewRegistry()}
}

// registry unwraps the internal registry; nil-safe (nil receiver yields
// nil, letting the engine fall back to a private registry).
func (m *MetricsRegistry) registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// WritePrometheus renders every metric registered by the sharing
// engines in the Prometheus text exposition format.
func (m *MetricsRegistry) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// Handler returns an http.Handler serving WritePrometheus.
func (m *MetricsRegistry) Handler() http.Handler {
	return m.reg.Handler()
}

// WriteMetrics renders the engine's cumulative metrics — query and rule
// counters, plan-choice counters, latency histograms — in the Prometheus
// text exposition format.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.metrics.reg.WritePrometheus(w)
}

// MetricsHandler returns an http.Handler serving WriteMetrics, suitable
// for mounting at /metrics.
func (e *Engine) MetricsHandler() http.Handler {
	return e.metrics.reg.Handler()
}

// engineMetrics are one engine's cumulative metrics: counters and
// latency histograms, recorded atomically and readable while queries
// run. Every metric carries a dataset label, so engines sharing one
// registry aggregate per dataset and a rebuilt engine continues its
// predecessor's series.
type engineMetrics struct {
	reg *obs.Registry

	queries      *obs.Counter
	queryErrors  *obs.Counter
	rulesEmitted *obs.Counter
	latency      *obs.Histogram
	chosen       []*obs.Counter // by plans.Kind

	ingestBatches  *obs.Counter
	ingestRows     *obs.Counter
	ingestDeletes  *obs.Counter
	deltaQueries   *obs.Counter
	rebuilds       *obs.Counter
	rebuildSeconds *obs.Histogram
}

// newEngineMetrics registers the metrics of an engine over the named
// dataset in reg, or in a private registry when reg is nil.
func newEngineMetrics(reg *obs.Registry, dataset string) engineMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	labels := fmt.Sprintf("dataset=%q", dataset)
	m := engineMetrics{reg: reg}
	m.queries = reg.CounterWith("colarm_queries_total", labels,
		"Localized mining queries served (including failed ones).")
	m.queryErrors = reg.CounterWith("colarm_query_errors_total", labels,
		"Localized mining queries that failed.")
	m.rulesEmitted = reg.CounterWith("colarm_rules_emitted_total", labels,
		"Rules emitted across all queries.")
	m.latency = reg.Histogram("colarm_query_seconds", labels,
		"End-to-end query execution latency.", nil)
	for _, k := range plans.Kinds() {
		m.chosen = append(m.chosen, reg.CounterWith("colarm_plan_chosen_total",
			labels+`,plan="`+k.String()+`"`,
			"Plans picked by the cost-based optimizer."))
	}
	m.ingestBatches = reg.CounterWith("colarm_ingest_batches_total", labels,
		"Ingest batches accepted into the delta store.")
	m.ingestRows = reg.CounterWith("colarm_ingest_rows_total", labels,
		"Records inserted through live ingestion.")
	m.ingestDeletes = reg.CounterWith("colarm_ingest_deletes_total", labels,
		"Records tombstoned through live ingestion.")
	m.deltaQueries = reg.CounterWith("colarm_delta_queries_total", labels,
		"Queries answered through the merged base+delta view.")
	m.rebuilds = reg.CounterWith("colarm_rebuilds_total", labels,
		"Full index rebuilds absorbing the delta store.")
	m.rebuildSeconds = reg.Histogram("colarm_rebuild_seconds", labels,
		"Duration of full index rebuilds.", nil)
	return m
}

// observe records one mining request: every one is counted, a failed
// one as an error too; a successful one adds its rules and latency, and
// counts as a delta query when its resolved surface f was a merged one.
func (m *engineMetrics) observe(f *plans.Focal, res *plans.Result, err error) {
	m.queries.Inc()
	if err != nil {
		m.queryErrors.Inc()
		return
	}
	m.rulesEmitted.Add(int64(res.Stats.RulesEmitted))
	m.latency.Observe(res.Stats.Duration)
	if f.Surface.Version != 0 {
		m.deltaQueries.Inc()
	}
}
