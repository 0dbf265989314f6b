package colarm

import (
	"io"
	"net/http"

	"colarm/internal/obs"
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
// counters, plan-choice counters, latency histograms, plan-choice
// accuracy counters — in the Prometheus text exposition format.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.eng.Metrics.WritePrometheus(w)
}

// MetricsHandler returns an http.Handler serving WriteMetrics, suitable
// for mounting at /metrics.
func (e *Engine) MetricsHandler() http.Handler {
	return e.eng.Metrics.Handler()
}

// AccuracyReport summarizes the optimizer's running plan-choice
// accuracy, fed by queries mined with Query.Trace set on an engine
// opened with Options.TrackAccuracy (each such query re-executes all
// six plans and compares the optimizer's pick against the empirically
// cheapest one): Queries scored and Correct choices under Tolerance (the
// regret fraction a mispredicted choice may cost and still count, the
// paper's §5.1 methodology uses 5%), MissRegretMax/Avg over the missed
// ones, and the Accuracy method for Correct/Queries.
type AccuracyReport = obs.AccuracyReport

// AccuracyReport returns the engine's running plan-choice accuracy.
func (e *Engine) AccuracyReport() AccuracyReport {
	return e.eng.Accuracy.Report()
}
