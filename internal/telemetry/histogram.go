package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free streaming summary of observations: atomically
// maintained count, sum, min and max. Observe is one atomic add plus the
// sum/min/max CAS loops.
//
// Non-finite observations (NaN, ±Inf) are quarantined: counted separately
// and excluded from sum and min/max. A single NaN folded into the running
// sum would silently poison every later snapshot (and make the JSON
// manifest unencodable); a counted quarantine keeps the histogram honest
// and makes the bad input visible. Zero and negative observations are
// finite and recorded normally.
type Histogram struct {
	count     atomic.Int64
	nonFinite atomic.Int64
	sumBits   atomic.Uint64
	minBits   atomic.Uint64 // math.Float64bits, +Inf when empty
	maxBits   atomic.Uint64 // math.Float64bits, -Inf when empty
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Non-finite values are quarantined (see type
// comment) rather than recorded.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite.Add(1)
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistStats is a point-in-time summary of a histogram. NonFinite counts
// quarantined NaN/±Inf observations, which participate in nothing else.
type HistStats struct {
	Count         int64
	NonFinite     int64
	Sum, Min, Max float64
}

// Stats snapshots count/sum/min/max. An empty histogram reports zeros.
func (h *Histogram) Stats() HistStats {
	st := HistStats{Count: h.count.Load(), NonFinite: h.nonFinite.Load()}
	if st.Count == 0 {
		return st
	}
	st.Sum = math.Float64frombits(h.sumBits.Load())
	st.Min = math.Float64frombits(h.minBits.Load())
	st.Max = math.Float64frombits(h.maxBits.Load())
	// Observe quarantines non-finite values, so min/max can only be ±Inf
	// in the window between a concurrent Observe's count add and its
	// min/max CAS. Guard anyway: snapshots must stay JSON-encodable.
	if math.IsInf(st.Min, 0) {
		st.Min = 0
	}
	if math.IsInf(st.Max, 0) {
		st.Max = 0
	}
	return st
}

// Count returns the number of (finite) observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// NonFinite returns the number of quarantined NaN/±Inf observations.
func (h *Histogram) NonFinite() int64 { return h.nonFinite.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Timer records durations into a histogram of seconds.
type Timer struct {
	h *Histogram
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// Start begins timing; the returned stop function records the elapsed
// duration when called. Typical use: defer tm.Start()().
func (t *Timer) Start() func() {
	t0 := time.Now()
	return func() { t.Observe(time.Since(t0)) }
}

// Count returns the number of recorded durations.
func (t *Timer) Count() int64 { return t.h.Count() }

// SumSeconds returns the total recorded time in seconds.
func (t *Timer) SumSeconds() float64 { return t.h.Sum() }
