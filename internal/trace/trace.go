// Package trace is the repository's span-tracing layer: it records where
// wall-clock time goes inside a run as a tree of spans — figure → sweep →
// replication → mux chunk fill/drain — and exports the tree as Chrome
// trace-event JSON (loadable in chrome://tracing and Perfetto) plus an
// aggregated per-name summary for run manifests.
//
// Design constraints, in order:
//
//  1. Tracing must never perturb results. Spans are observational: nothing
//     here touches random number streams or simulation state, so
//     fixed-seed outputs are bit-identical with tracing on or off.
//  2. Disabled tracing must be near-free. The zero Span and the nil
//     *Tracer are valid no-op values: starting a child of a zero Span is
//     one nil check and returns another zero Span, so instrumented hot
//     paths pay a single predictable branch, and no allocation, when no
//     -trace flag is given: attributes are copied only on an active span.
//  3. Recording must be cheap enough for per-chunk granularity. A span is
//     two time.Now calls plus one short mutex-protected append at End;
//     instrumentation sits at chunk (≤ 4096 frames) and coarser
//     boundaries, never per frame.
//
// Concurrency: spans from parallel replication workers are recorded on
// distinct lanes (OnLane), which the Chrome exporter maps to thread IDs so
// concurrent replications render side by side instead of as one
// impossibly-overlapping stack. A span inherits its parent's lane unless
// overridden.
package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any // string, int, int64 or float64 — kept JSON-encodable
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Record is one completed span, in the tracer's monotonic time base
// (durations since Tracer start).
type Record struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Lane   int // exporter thread lane; 0 = orchestrator
	Start  time.Duration
	End    time.Duration
	Attrs  []Attr
}

// Dur returns the span's wall-clock duration.
func (r Record) Dur() time.Duration { return r.End - r.Start }

// Tracer collects completed spans. The nil *Tracer is the disabled state:
// every operation on it (and on spans descended from it) is a no-op.
type Tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	records []Record
}

// New returns an enabled tracer whose time base starts now.
func New() *Tracer {
	return &Tracer{t0: time.Now()}
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is a handle on an in-flight span. The zero Span is a valid no-op:
// children of it are no-ops and End does nothing, so instrumented code
// never needs to test whether tracing is on.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	lane   int
	name   string
	start  time.Duration
	attrs  []Attr
}

// Root starts a top-level span. A nil tracer returns the zero Span.
func (t *Tracer) Root(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:    t,
		id:    t.nextID.Add(1),
		name:  name,
		start: time.Since(t.t0),
		attrs: appendAttrs(nil, attrs),
	}
}

// Child starts a sub-span of s, inheriting s's lane. On the zero Span it
// is a no-op returning another zero Span — the single branch, with no
// allocation, that makes disabled tracing near-free on chunk-granularity
// hot paths.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.tr == nil {
		return Span{}
	}
	return Span{
		tr:     s.tr,
		id:     s.tr.nextID.Add(1),
		parent: s.id,
		lane:   s.lane,
		name:   name,
		start:  time.Since(s.tr.t0),
		attrs:  appendAttrs(nil, attrs),
	}
}

// OnLane returns a copy of s assigned to the given exporter lane
// (rendered as a thread track). Parallel replication workers get distinct
// lanes so their spans render side by side; descendants inherit the lane.
func (s Span) OnLane(lane int) Span {
	s.lane = lane
	return s
}

// Active reports whether the span records on End (false for the zero
// Span).
func (s Span) Active() bool { return s.tr != nil }

// SetAttrs appends annotations to the span before End.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s.tr != nil {
		s.attrs = appendAttrs(s.attrs, attrs)
	}
}

// appendAttrs appends deep copies of attrs to dst: keys and string values
// are cloned and numbers re-boxed, so no pointer the caller passed is
// kept. That lets the compiler keep the caller's variadic slice and its
// boxed values on the stack, which is what makes a disabled span free.
// A value of any type other than the four constructors' is recorded as
// nil.
func appendAttrs(dst, attrs []Attr) []Attr {
	for _, a := range attrs {
		c := Attr{Key: strings.Clone(a.Key)}
		switch v := a.Value.(type) {
		case string:
			c.Value = strings.Clone(v)
		case int:
			c.Value = v
		case int64:
			c.Value = v
		case float64:
			c.Value = v
		}
		dst = append(dst, c)
	}
	return dst
}

// End completes the span and records it. End on the zero Span is a no-op;
// a double End records a duplicate and is a programming error (not
// checked on the hot path).
func (s Span) End() {
	if s.tr == nil {
		return
	}
	rec := Record{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Lane:   s.lane,
		Start:  s.start,
		End:    time.Since(s.tr.t0),
		Attrs:  s.attrs,
	}
	s.tr.mu.Lock()
	s.tr.records = append(s.tr.records, rec)
	s.tr.mu.Unlock()
}

// Records returns a copy of every completed span, in End order. Nil
// tracers return nil.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Record(nil), t.records...)
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.records)
}
