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
// counters, plan-choice counters, latency histograms — in the Prometheus
// text exposition format.
func (e *Engine) WriteMetrics(w io.Writer) error {
	return e.eng.Metrics.WritePrometheus(w)
}

// MetricsHandler returns an http.Handler serving WriteMetrics, suitable
// for mounting at /metrics.
func (e *Engine) MetricsHandler() http.Handler {
	return e.eng.Metrics.Handler()
}
