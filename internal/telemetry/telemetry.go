// Package telemetry is the repository's observability layer: a lock-cheap
// metrics registry (atomic counters, float counters, gauges, streaming
// count/sum/min/max histograms, and timers) with labeled metric families,
// and its one sink, the structured JSONL run manifest (manifest.go), whose
// summary line carries the final registry snapshot.
//
// Design constraints, in order:
//
//  1. Recording must never perturb results. Metrics are observational:
//     nothing in this package touches random number streams or simulation
//     state, so fixed-seed outputs are bit-identical with telemetry read
//     or ignored.
//  2. Recording must be cheap enough for simulation hot paths. Counter.Add
//     is one atomic add; FloatCounter/Gauge are one CAS loop (uncontended
//     in practice — writers are per-chunk, not per-frame); Histogram.Observe
//     is a handful of atomics. No locks are taken after a metric has been
//     created.
//  3. Reading is approximately consistent. Snapshots read each atomic
//     individually without fencing the set, which is the usual (and here
//     sufficient) contract for progress observability.
//
// Metrics live in a Registry. The package-level Default registry is the
// recording target for the cross-cutting instrumentation in internal/mux,
// internal/fgn and internal/experiments; internal/runner engines default to
// a private registry so concurrently-tested engines do not share counters,
// and accept Default explicitly in the CLIs.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry used by package-level
// instrumentation (mux chunk metrics, fgn cache metrics, runner progress).
// CLIs snapshot it into the run manifest; tests read deltas from it.
var Default = NewRegistry()

// Label is one key=value dimension of a metric family.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind enumerates the metric types a registry can hold.
type Kind string

const (
	KindCounter      Kind = "counter"
	KindFloatCounter Kind = "float_counter"
	KindGauge        Kind = "gauge"
	KindHistogram    Kind = "histogram"
	KindTimer        Kind = "timer"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error but is not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 metric, for
// accumulated quantities that are naturally fractional (e.g. fluid cells).
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v via a CAS loop.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 metric that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by v via a CAS loop.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is one registered instrument.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	c *Counter
	f *FloatCounter
	g *Gauge
	h *Histogram
	t *Timer
}

// Registry is a set of named, optionally labeled metrics. The zero value
// is not usable; call NewRegistry. Lookup/creation takes a mutex; the
// returned instruments are lock-free, so callers should hold on to them
// rather than re-looking them up per observation when the path is hot.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// key builds the lookup key and returns the sorted label set.
func key(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// lookup returns the metric for (name, labels), creating it with mk on
// first use. Requesting an existing metric with a different kind panics:
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, kind Kind, labels []Label, mk func(*metric)) *metric {
	k, ls := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[k]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind}
	mk(m)
	r.metrics[k] = m
	return m
}

// Counter returns the int64 counter for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, KindCounter, labels, func(m *metric) { m.c = &Counter{} }).c
}

// FloatCounter returns the float64 counter for (name, labels).
func (r *Registry) FloatCounter(name string, labels ...Label) *FloatCounter {
	return r.lookup(name, KindFloatCounter, labels, func(m *metric) { m.f = &FloatCounter{} }).f
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, KindGauge, labels, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the streaming histogram for (name, labels).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, KindHistogram, labels, func(m *metric) { m.h = NewHistogram() }).h
}

// Timer returns the duration timer for (name, labels). Timers record into
// a histogram of seconds.
func (r *Registry) Timer(name string, labels ...Label) *Timer {
	return r.lookup(name, KindTimer, labels, func(m *metric) { m.t = &Timer{h: NewHistogram()} }).t
}

// Snapshot is one metric's point-in-time state, as written to manifests.
// Scalar metrics fill Value; histograms and timers fill Count/Sum/Min/Max.
type Snapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   Kind              `json:"kind"`
	Value  float64           `json:"value,omitempty"`
	Count  int64             `json:"count,omitempty"`
	// NonFinite counts quarantined NaN/±Inf histogram observations; they
	// participate in no other statistic.
	NonFinite int64   `json:"non_finite,omitempty"`
	Sum       float64 `json:"sum,omitempty"`
	Min       float64 `json:"min,omitempty"`
	Max       float64 `json:"max,omitempty"`
}

// Snapshot returns the state of every registered metric, sorted by name
// then labels, suitable for JSON encoding.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return labelString(ms[i].labels) < labelString(ms[j].labels)
	})
	out := make([]Snapshot, 0, len(ms))
	for _, m := range ms {
		s := Snapshot{Name: m.name, Kind: m.kind}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindFloatCounter:
			s.Value = m.f.Value()
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram, KindTimer:
			h := m.h
			if m.kind == KindTimer {
				h = m.t.h
			}
			st := h.Stats()
			s.Count, s.Sum, s.Min, s.Max = st.Count, st.Sum, st.Min, st.Max
			s.NonFinite = st.NonFinite
		}
		out = append(out, s)
	}
	return out
}

// labelString renders sorted labels as {k="v",...} (empty for none), the
// stable sort key of Snapshot.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
