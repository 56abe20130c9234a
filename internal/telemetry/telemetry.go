// Package telemetry is the host-side, wall-clock observability layer
// for the service stack: a zero-dependency registry of counters, gauges
// and fixed-bucket histograms with atomic hot paths, exported in
// Prometheus text exposition format and as a deterministic JSON
// snapshot.
//
// It is deliberately parallel to internal/obs: obs measures *simulated
// cycles* inside a run and is byte-deterministic; telemetry measures
// *wall-clock* behavior of the process serving those runs (request
// latency, queue depth, worker utilization) and is inherently
// nondeterministic. The two never mix — telemetry observes the service,
// it is never an input to a simulation, so grids stay byte-identical
// with telemetry enabled or disabled.
//
// Naming convention: metrics are prometheus-style snake_case with a
// subsystem prefix ("terpd_") and a unit suffix ("_seconds", "_bytes",
// "_total" for monotonic counters). Label values must come from bounded
// sets (route patterns, job states, tenant names) — never raw URLs or
// IDs — so series cardinality stays bounded.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelSep joins label values into child-map keys; label values never
// contain it.
const labelSep = "\x1f"

// family is one named metric family: a scalar metric, a func-backed
// scalar, or a set of labeled children.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string  // label names (nil for scalars)
	bounds []float64 // histogram upper bounds

	fn func() float64 // func-backed scalar (sampled at export)

	mu       sync.RWMutex
	children map[string]any // labelSep-joined values -> *Counter|*Gauge|*Histogram
}

// child returns (creating on first use) the labeled child metric.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	m := f.children[key]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m = f.children[key]; m != nil {
		return m
	}
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		m = newHistogram(f.bounds)
	}
	f.children[key] = m
	return m
}

// sortedKeys returns the child keys in sorted order (deterministic
// export).
func (f *family) sortedKeys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Registry holds metric families. Registration is idempotent by name;
// re-registering a name with a different shape panics (programmer
// error). The zero value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register returns the named family, creating it on first use.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) || (f.fn == nil) != (fn == nil) {
			panic(fmt.Sprintf("telemetry: %s re-registered as a different metric shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels: labels, bounds: bounds, fn: fn,
		children: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil, nil).child(nil).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil, nil).child(nil).(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, kindHistogram, nil, bounds, nil).child(nil).(*Histogram)
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil, nil)}
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil, nil)}
}

// HistogramVec registers (or finds) a labeled histogram family with the
// given upper bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, bounds, nil)}
}

// GaugeFunc registers a gauge whose value is sampled by fn at export
// time (runtime stats, pool occupancy).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, nil, fn)
}

// CounterFunc registers a counter whose value is sampled by fn at
// export time; fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, nil, fn)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the child counter for the label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// Each visits every child in sorted label order.
func (v *CounterVec) Each(fn func(labels []string, c *Counter)) {
	for _, key := range v.f.sortedKeys() {
		v.f.mu.RLock()
		c := v.f.children[key].(*Counter)
		v.f.mu.RUnlock()
		fn(splitKey(key), c)
	}
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// Each visits every child in sorted label order.
func (v *GaugeVec) Each(fn func(labels []string, g *Gauge)) {
	for _, key := range v.f.sortedKeys() {
		v.f.mu.RLock()
		g := v.f.children[key].(*Gauge)
		v.f.mu.RUnlock()
		fn(splitKey(key), g)
	}
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Each visits every child in sorted label order.
func (v *HistogramVec) Each(fn func(labels []string, h *Histogram)) {
	for _, key := range v.f.sortedKeys() {
		v.f.mu.RLock()
		h := v.f.children[key].(*Histogram)
		v.f.mu.RUnlock()
		fn(splitKey(key), h)
	}
}

func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, labelSep)
}

// sortedFamilies returns the families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
