// Package fgn synthesises exact discrete-time fractional Gaussian noise
// (FGN), the canonical exact long-range-dependent process of paper §2: a
// stationary Gaussian sequence whose autocorrelation is
//
//	r(k) = ½∇²(|k|^{2H}) = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})
//
// i.e. the g(Ts) = 1 case of the paper's exact-LRD definition (Eq. 2).
//
// Synthesis uses the Davies-Harte circulant embedding method: the length-2n
// circulant built from the autocovariance sequence has a non-negative real
// spectrum for FGN, so an exact sample of length n costs two FFTs. The
// method produces exact finite-dimensional distributions within a block;
// successive blocks are independent, which matters only at lags comparable
// to the block size (documented on Generator).
package fgn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/fft"
	"repro/internal/randx"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Eigenvalue-cache effectiveness counters: one miss per distinct
// (model, block length) pays the circulant FFT; every further generator of
// the same model is a hit. An N-source multiplexer run should record N−1
// hits per miss — regression here means the spectrum is being recomputed
// per source again.
var (
	metEigHits   = telemetry.Default.Counter("fgn_eig_cache_hits_total")
	metEigMisses = telemetry.Default.Counter("fgn_eig_cache_misses_total")
)

// Model is a fractional Gaussian noise frame-size process with mean μ,
// variance σ² and Hurst parameter H, implementing traffic.Model.
type Model struct {
	H        float64
	mean     float64
	variance float64
	name     string
	// BlockLen is the synthesis block length (power of two). Larger blocks
	// preserve correlation to longer lags at higher memory cost.
	BlockLen int

	// eigMu guards eigCache, the memoised circulant spectrum per block
	// length. The spectrum depends only on (ACF, n), so the N generators
	// of one multiplexer run share a single FFT instead of recomputing
	// identical eigenvalues N times.
	eigMu    sync.Mutex
	eigCache map[int][]float64
}

// DefaultBlockLen is the synthesis block size used when the caller does not
// override Model.BlockLen: long enough that block-boundary independence is
// invisible at the lag ranges this repository studies (≤ a few thousand).
const DefaultBlockLen = 1 << 16

// NewModel validates and constructs an FGN model. H must lie in (0, 1);
// H = 0.5 degenerates to white Gaussian noise (still valid).
func NewModel(h, mean, variance float64) (*Model, error) {
	if h <= 0 || h >= 1 {
		return nil, fmt.Errorf("fgn: Hurst parameter %v outside (0, 1)", h)
	}
	if variance <= 0 {
		return nil, fmt.Errorf("fgn: variance %v must be positive", variance)
	}
	return &Model{
		H:        h,
		mean:     mean,
		variance: variance,
		name:     fmt.Sprintf("FGN(H=%.3g)", h),
		BlockLen: DefaultBlockLen,
	}, nil
}

// Name implements traffic.Model.
func (m *Model) Name() string { return m.name }

// DrawVersion implements traffic.DrawVersioned.
func (m *Model) DrawVersion() string { return "fgn.1" }

// SetName overrides the display name.
func (m *Model) SetName(name string) { m.name = name }

// Mean implements traffic.Model.
func (m *Model) Mean() float64 { return m.mean }

// Variance implements traffic.Model.
func (m *Model) Variance() float64 { return m.variance }

// ACF implements traffic.Model: the exact FGN autocorrelation
// ½∇²(|k|^{2H}).
func (m *Model) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	return HalfSecondDiff(k, 2*m.H)
}

// ACFRange implements traffic.ACFRanger: dst[i] = ACF(from+i), bit for
// bit, for from ≥ 0, through HalfSecondDiffRange.
func (m *Model) ACFRange(dst []float64, from int) {
	if from == 0 && len(dst) > 0 {
		dst[0] = 1
		dst, from = dst[1:], 1
	}
	HalfSecondDiffRange(dst, from, 2*m.H)
}

// ACFNonIncreasing implements traffic.NonIncreasingACF: for H ≥ ½ the
// ACF ½∇²(k^{2H}) is non-negative and decreasing in k (k^{2H} has a
// non-increasing second derivative). For H < ½ it is negative at lag 1
// and rises towards 0, so it is not declared.
func (m *Model) ACFNonIncreasing() bool { return m.H >= 0.5 }

// HalfSecondDiff returns ½∇²(k^e) = ½[(k+1)^e − 2k^e + (k−1)^e] for
// k ≥ 1: the exact FGN autocorrelation at lag k when e = 2H.
func HalfSecondDiff(k int, e float64) float64 {
	fk := float64(k)
	return halfSecondDiff(math.Pow(fk-1, e), math.Pow(fk, e), math.Pow(fk+1, e))
}

// HalfSecondDiffRange sets dst[i] = HalfSecondDiff(from+i, e), bit for
// bit, for from ≥ 1. It carries (k−1)^e and k^e forward, so each lag
// costs one Pow instead of three.
func HalfSecondDiffRange(dst []float64, from int, e float64) {
	prev, cur := math.Pow(float64(from-1), e), math.Pow(float64(from), e)
	for i := range dst {
		next := math.Pow(float64(from+i+1), e)
		dst[i] = halfSecondDiff(prev, cur, next)
		prev, cur = cur, next
	}
}

// halfSecondDiff is ½[(k+1)^e − 2k^e + (k−1)^e] from the three powers
// (k−1)^e, k^e and (k+1)^e.
func halfSecondDiff(prev, cur, next float64) float64 {
	return 0.5 * (next - 2*cur + prev)
}

// generator serves FGN samples block by block.
type generator struct {
	m     *Model
	rng   *rand.Rand
	sqrtL []float64    // sqrt of circulant eigenvalues, length 2n
	w     []complex128 // FFT scratch, length 2n; fully rewritten per block
	block []float64
	pos   int
}

// NewGenerator implements traffic.Model. Samples within a block of
// m.BlockLen frames have the exact FGN joint distribution; distinct blocks
// are independent. Distinct seeds give independent paths.
func (m *Model) NewGenerator(seed int64) traffic.Generator {
	n := m.BlockLen
	if !fft.IsPow2(n) || n < 2 {
		n = fft.NextPow2(max(n, 2))
	}
	g := &generator{
		m:     m,
		rng:   randx.NewRand(seed),
		sqrtL: m.eigenvaluesCached(n),
	}
	g.fill(n)
	return g
}

// eigenvaluesCached memoises eigenvalues per block length.
func (m *Model) eigenvaluesCached(n int) []float64 {
	m.eigMu.Lock()
	defer m.eigMu.Unlock()
	if v, ok := m.eigCache[n]; ok {
		metEigHits.Inc()
		return v
	}
	metEigMisses.Inc()
	if m.eigCache == nil {
		m.eigCache = make(map[int][]float64)
	}
	v := eigenvalues(m, n)
	m.eigCache[n] = v
	return v
}

// eigenvalues computes the square roots of the 2n circulant eigenvalues of
// the FGN autocovariance. For FGN these are provably non-negative; tiny
// negative rounding residue is clamped to zero.
func eigenvalues(m *Model, n int) []float64 {
	c := make([]complex128, 2*n)
	for k := 0; k <= n; k++ {
		c[k] = complex(m.ACF(k), 0)
	}
	for k := 1; k < n; k++ {
		c[2*n-k] = c[k]
	}
	// The circulant spectrum of a symmetric first row is real.
	if err := fft.Forward(c); err != nil {
		panic("fgn: internal fft size invariant violated: " + err.Error())
	}
	out := make([]float64, 2*n)
	for i, v := range c {
		lam := real(v)
		if lam < 0 {
			lam = 0
		}
		out[i] = math.Sqrt(lam)
	}
	return out
}

// fill synthesises the next exact block of n samples.
func (g *generator) fill(n int) {
	two := 2 * n
	if len(g.w) != two {
		g.w = make([]complex128, two)
	}
	w := g.w
	norm := 1 / math.Sqrt(float64(two))
	w[0] = complex(g.sqrtL[0]*g.rng.NormFloat64()*norm, 0)
	w[n] = complex(g.sqrtL[n]*g.rng.NormFloat64()*norm, 0)
	invSqrt2 := 1 / math.Sqrt2
	for k := 1; k < n; k++ {
		re := g.rng.NormFloat64() * invSqrt2
		im := g.rng.NormFloat64() * invSqrt2
		w[k] = complex(g.sqrtL[k]*re*norm, g.sqrtL[k]*im*norm)
		w[two-k] = complex(real(w[k]), -imag(w[k]))
	}
	if err := fft.Forward(w); err != nil {
		panic("fgn: internal fft size invariant violated: " + err.Error())
	}
	sd := math.Sqrt(g.m.variance)
	if cap(g.block) < n {
		g.block = make([]float64, n)
	}
	g.block = g.block[:n]
	for i := 0; i < n; i++ {
		g.block[i] = g.m.mean + sd*real(w[i])
	}
	g.pos = 0
}

// NextFrame implements traffic.Generator.
func (g *generator) NextFrame() float64 {
	if g.pos >= len(g.block) {
		g.fill(len(g.block))
	}
	v := g.block[g.pos]
	g.pos++
	return v
}

// Fill implements traffic.BlockGenerator: bulk copies out of the
// synthesised block, refilling at block boundaries. The draw order is
// identical to repeated NextFrame calls, so the path is bit-identical to
// the scalar protocol.
func (g *generator) Fill(dst []float64) {
	for len(dst) > 0 {
		if g.pos >= len(g.block) {
			g.fill(len(g.block))
		}
		n := copy(dst, g.block[g.pos:])
		g.pos += n
		dst = dst[n:]
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
