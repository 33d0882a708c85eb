package traffic

import "sync"

// Moments is a cached second-order view of a Model: memoised
// autocorrelations together with their prefix sums, from which the
// variance-time function V(m) = Var(Σ_{i=1..m} Y_i) is available in O(1)
// per query after a one-time O(m) extension.
//
// The critical-time-scale search, the Bahadur-Rao and large-N asymptotics,
// admission control and every analytic sweep in this repository evaluate
// V(m) over the same lag range at many operating points; sharing one
// Moments per model turns those repeated ACF partial-sum scans into cheap
// array lookups. The accumulation order matches the incremental
// core.VarianceOfSum evaluator exactly, so cached and direct computations
// agree bit for bit.
//
// Moments itself implements Model (delegating Name and NewGenerator to the
// wrapped model), so it can be passed anywhere a Model is expected. It is
// safe for concurrent use; Mean and Variance are captured at construction,
// which assumes the wrapped model's moments are immutable — true for every
// model in this repository. A scan that reads V(m) many times takes a
// lock-free Prefix snapshot instead of locking per query.
type Moments struct {
	model  Model
	ranger ACFRanger // model's range method, or nil
	mean   float64
	sigma2 float64

	mu     sync.Mutex
	blocks []*block // lag k lives in blocks[k/rangeChunk] at k%rangeChunk
	n      int      // lags 0..n−1 are memoised
}

// block holds the memo for rangeChunk consecutive lags. Blocks are
// allocated whole and never move or shrink, so entries below the memo's
// length are written once and can be read without the lock.
type block struct {
	r  [rangeChunk]float64 // memoised ACF; r(0) = 1
	s1 [rangeChunk]float64 // Σ_{i=1..k} r(i)
	s2 [rangeChunk]float64 // Σ_{i=1..k} i·r(i)
}

// NewMoments wraps m in a fresh cached view. If m is itself a *Moments the
// same view is returned rather than stacking a second cache.
func NewMoments(m Model) *Moments {
	if mo, ok := m.(*Moments); ok {
		return mo
	}
	ranger, _ := m.(ACFRanger)
	first := new(block)
	first.r[0] = 1
	return &Moments{
		model:  m,
		ranger: ranger,
		mean:   m.Mean(),
		sigma2: m.Variance(),
		blocks: []*block{first},
		n:      1,
	}
}

// Model returns the wrapped model.
func (mo *Moments) Model() Model { return mo.model }

// DrawVersion implements DrawVersioned for the wrapped model.
func (mo *Moments) DrawVersion() string { return DrawVersion(mo.model) }

// ACFNonIncreasing implements NonIncreasingACF for the wrapped model.
func (mo *Moments) ACFNonIncreasing() bool { return ACFNonIncreasing(mo.model) }

// Name implements Model.
func (mo *Moments) Name() string { return mo.model.Name() }

// Mean implements Model.
func (mo *Moments) Mean() float64 { return mo.mean }

// Variance implements Model.
func (mo *Moments) Variance() float64 { return mo.sigma2 }

// NewGenerator implements Model by delegating to the wrapped model.
func (mo *Moments) NewGenerator(seed int64) Generator {
	return mo.model.NewGenerator(seed)
}

// rangeChunk is the memo's block length in lags, and how far a model
// with a range method is filled at a time: enough to amortise the call
// and the lock over a lag-by-lag scan, few enough that the overshoot
// costs nothing.
const rangeChunk = 1024

// extend grows the memo through lag k, or through the end of the block
// holding lag k when the model has a range method, with one range call
// per block; a model without one is evaluated lag by lag and exactly to
// k. The prefix sums accumulate in lag order, whichever way the ACF was
// filled. Callers must hold mo.mu.
func (mo *Moments) extend(k int) {
	if mo.ranger != nil {
		k |= rangeChunk - 1
	}
	lag := mo.n
	b := mo.blocks[len(mo.blocks)-1]
	prev := (lag - 1) % rangeChunk
	s1, s2 := b.s1[prev], b.s2[prev]
	for lag <= k {
		i := lag % rangeChunk
		if i == 0 {
			b = new(block)
			mo.blocks = append(mo.blocks, b)
		}
		end := min(rangeChunk, i+k+1-lag)
		r := b.r[i:end]
		if mo.ranger != nil {
			mo.ranger.ACFRange(r, lag)
		} else {
			for j := range r {
				r[j] = mo.model.ACF(lag + j)
			}
		}
		for j, rv := range r {
			s1 += rv
			s2 += float64(lag+j) * rv
			b.s1[i+j], b.s2[i+j] = s1, s2
		}
		lag += len(r)
	}
	mo.n = lag
}

// ACF implements Model with memoisation.
func (mo *Moments) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	mo.mu.Lock()
	if k >= mo.n {
		mo.extend(k)
	}
	v := mo.blocks[k/rangeChunk].r[k%rangeChunk]
	mo.mu.Unlock()
	return v
}

// SumACF returns Σ_{i=1..k} r(i), the ACF prefix sum (0 for k ≤ 0).
func (mo *Moments) SumACF(k int) float64 {
	if k <= 0 {
		return 0
	}
	mo.mu.Lock()
	if k >= mo.n {
		mo.extend(k)
	}
	v := mo.blocks[k/rangeChunk].s1[k%rangeChunk]
	mo.mu.Unlock()
	return v
}

// VarSum returns the variance-time function
//
//	V(m) = σ²·[m + 2·Σ_{i=1..m−1} (m−i)·r(i)]
//	     = σ²·[m + 2·(m·s1(m−1) − s2(m−1))]
//
// in O(1) once lags through m−1 are cached (0 for m ≤ 0). This is the
// quantity the rate function I(c,b) = inf_m [b+m(c−μ)]²/2V(m) minimises
// over, evaluated thousands of times per CTS sweep.
func (mo *Moments) VarSum(m int) float64 {
	if m < 1 {
		return 0
	}
	return mo.Prefix(m - 1).VarSum(m)
}

// Prefix returns a snapshot of the prefix sums through at least lag k,
// extending the memo first if needed. The snapshot answers V(m) for
// m ≤ MaxM() without taking the lock, so a scan locks only when it runs
// past the snapshot and takes a new one.
//
// Snapshots stay valid while other goroutines extend the view: blocks
// never move, and extend writes only past the memo's length, so the
// entries a snapshot reads are never written again. The snapshot holds
// the block list as it was; later blocks are appended to the view's list
// only.
func (mo *Moments) Prefix(k int) Prefix {
	mo.mu.Lock()
	if k >= mo.n {
		mo.extend(k)
	}
	nb := len(mo.blocks)
	p := Prefix{sigma2: mo.sigma2, blocks: mo.blocks[:nb:nb], n: mo.n}
	mo.mu.Unlock()
	return p
}

// Prefix is an immutable snapshot of a Moments view's prefix sums. The
// zero value holds no lags.
type Prefix struct {
	sigma2 float64
	blocks []*block // as in Moments, holding lags 0..n−1
	n      int
}

// MaxM returns the largest m whose V(m) the snapshot holds.
func (p Prefix) MaxM() int { return p.n }

// VarSum returns V(m) for 1 ≤ m ≤ MaxM(), bit-identical to
// Moments.VarSum.
func (p Prefix) VarSum(m int) float64 {
	k := m - 1
	b := p.blocks[k/rangeChunk]
	fm := float64(m)
	return p.sigma2 * (fm + 2*(fm*b.s1[k%rangeChunk]-b.s2[k%rangeChunk]))
}

// AggVariance returns Var(X̄_m) = V(m)/m², the variance of the m-frame
// aggregated mean — the curve whose log-log slope 2H−2 defines long-range
// dependence on a variance-time plot.
func (mo *Moments) AggVariance(m int) float64 {
	if m < 1 {
		return 0
	}
	fm := float64(m)
	return mo.VarSum(m) / (fm * fm)
}

// CachedLags reports how many lags are currently memoised (diagnostics).
func (mo *Moments) CachedLags() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return mo.n - 1
}
