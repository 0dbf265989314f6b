package obs

import "sync/atomic"

// Gauge is a metric that can go up and down — the current size of
// something (active subscriptions, open streams) rather than a
// cumulative total. A single atomic word, safe for any number of
// concurrent movers.
type Gauge struct {
	name   string
	labels string
	help   string
	v      atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, "", help)
}

// GaugeWith registers (or returns) a gauge with rendered label pairs.
func (r *Registry) GaugeWith(name, labels, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if m, ok := r.byKey[key]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic("obs: metric " + key + " already registered as a different type")
		}
		return g
	}
	g := &Gauge{name: name, labels: labels, help: help}
	r.byKey[key] = g
	r.order = append(r.order, g)
	return g
}
