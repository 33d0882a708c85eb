package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry. Buckets are log-spaced with subScale buckets
// per power of two, i.e. a growth factor of 2^(1/subScale) ≈ 1.090 per
// bucket; a value is reported as the geometric midpoint of its bucket, so
// any quantile estimate is within a relative error of
//
//	RelativeError = 2^(1/(2·subScale)) − 1 ≈ 4.4 %
//
// of an exact sorted-sample quantile (the property the tests assert).
// The covered range [histMin, histMax) spans nanosecond timers to
// trillion-cell accumulations; values outside are clamped into the
// first/last bucket, and exact min/max are tracked separately so clamping
// never widens the reported range.
const (
	subScale = 8
	histMin  = 1e-9
	histMax  = 1e12
)

// RelativeError is the worst-case relative error of Histogram quantile
// estimates against exact sorted-sample quantiles, for in-range values.
var RelativeError = math.Pow(2, 1/(2*float64(subScale))) - 1

// nBuckets: one underflow bucket for v ≤ histMin (including zeros and
// negatives), then log2(histMax/histMin)·subScale log-spaced buckets, with
// the last also absorbing overflow.
var nBuckets = 2 + int(math.Ceil(math.Log2(histMax/histMin)*subScale))

// Histogram is a lock-free streaming histogram: fixed log-spaced buckets
// with atomic counters, plus atomically maintained count/sum/min/max.
// Observe is wait-free apart from the sum/min/max CAS loops; quantile
// queries walk the bucket array and are intended for snapshot-rate use.
//
// Non-finite observations (NaN, ±Inf) are quarantined: counted separately
// and excluded from buckets, sum, min/max and quantiles. A single NaN
// folded into the running sum would silently poison every later snapshot
// (and make the JSON manifest unencodable); a counted quarantine keeps
// the histogram honest and makes the bad input visible. Zero and negative
// observations are finite and recorded normally — they land in the
// underflow bucket and participate in sum/min/max.
type Histogram struct {
	buckets   []atomic.Int64
	count     atomic.Int64
	nonFinite atomic.Int64
	sumBits   atomic.Uint64
	minBits   atomic.Uint64 // math.Float64bits, +Inf when empty
	maxBits   atomic.Uint64 // math.Float64bits, -Inf when empty
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Int64, nBuckets)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a (finite) value to its bucket.
func bucketIndex(v float64) int {
	if !(v > histMin) { // negatives, zero and tiny values underflow
		return 0
	}
	i := 1 + int(math.Log2(v/histMin)*subScale)
	if i >= nBuckets {
		return nBuckets - 1
	}
	return i
}

// bucketMid returns the representative value (geometric midpoint) of a
// bucket. The underflow bucket is represented by histMin.
func bucketMid(i int) float64 {
	if i <= 0 {
		return histMin
	}
	lo := histMin * math.Pow(2, float64(i-1)/subScale)
	return lo * math.Pow(2, 0.5/subScale)
}

// Observe records one value. Non-finite values are quarantined (see type
// comment) rather than recorded.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite.Add(1)
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
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
	P50, P95, P99 float64
}

// Stats snapshots count/sum/min/max and the standard quantile set. An
// empty histogram reports zeros.
func (h *Histogram) Stats() HistStats {
	p, total := h.snapshotCounts()
	defer putCounts(p)
	counts := *p
	if total == 0 {
		return HistStats{NonFinite: h.nonFinite.Load()}
	}
	st := HistStats{
		Count:     total,
		NonFinite: h.nonFinite.Load(),
		Sum:       math.Float64frombits(h.sumBits.Load()),
		Min:       math.Float64frombits(h.minBits.Load()),
		Max:       math.Float64frombits(h.maxBits.Load()),
	}
	// Observe quarantines non-finite values, so min/max can only be ±Inf
	// in the sub-microsecond window between a concurrent Observe's bucket
	// add and its min/max CAS. Guard anyway: snapshots must stay
	// JSON-encodable.
	if math.IsInf(st.Min, 0) {
		st.Min = 0
	}
	if math.IsInf(st.Max, 0) {
		st.Max = 0
	}
	st.P50 = h.quantileFrom(counts, total, st.Min, st.Max, 0.5)
	st.P95 = h.quantileFrom(counts, total, st.Min, st.Max, 0.95)
	st.P99 = h.quantileFrom(counts, total, st.Min, st.Max, 0.99)
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

// Quantile estimates the q-th quantile (q in [0, 1]) of everything
// observed so far, within RelativeError of the exact sorted-sample
// quantile for in-range values. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	p, total := h.snapshotCounts()
	defer putCounts(p)
	if total == 0 {
		return 0
	}
	mn := math.Float64frombits(h.minBits.Load())
	mx := math.Float64frombits(h.maxBits.Load())
	return h.quantileFrom(*p, total, mn, mx, q)
}

// countsPool recycles bucket-count scratch buffers across snapshots. Every
// histogram shares the same geometry (nBuckets), so one pool serves all;
// without it each Stats/Quantile call allocated a fresh ~4.5 KB slice
// for a buffer that lives microseconds, once per histogram on every
// /metrics or /vars scrape and manifest snapshot
// (BenchmarkHistogramStats proves the before/after).
var countsPool = sync.Pool{
	New: func() any {
		b := make([]int64, nBuckets)
		return &b
	},
}

// snapshotCounts copies the bucket counters into a pooled scratch buffer;
// the caller must hand it back via putCounts. The copy is not fenced
// against concurrent Observe calls; each counter is itself consistent.
func (h *Histogram) snapshotCounts() (*[]int64, int64) {
	p := countsPool.Get().(*[]int64)
	counts := *p
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return p, total
}

func putCounts(p *[]int64) { countsPool.Put(p) }

// quantileFrom locates the bucket holding the nearest-rank element
// rank = ceil(q·n) and reports its geometric midpoint, clamped to the
// exact observed [min, max] so estimates never exceed the data range.
func (h *Histogram) quantileFrom(counts []int64, total int64, mn, mx, q float64) float64 {
	if q <= 0 {
		return mn
	}
	if q >= 1 {
		return mx
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < mn {
				v = mn
			}
			if v > mx {
				v = mx
			}
			return v
		}
	}
	return mx
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
