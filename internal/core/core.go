// Package core implements the paper's analytical contribution: the
// Critical Time Scale (CTS) of a VBR video source and the large-deviations
// buffer overflow asymptotics it is derived from (paper §4).
//
// The setting is an ATM multiplexer fed by N statistically identical
// Gaussian frame-size sources with mean μ, variance σ² and autocorrelation
// r(k) (all in cells/frame units), drained at C = N·c cells/frame with a
// buffer of B = N·b cells. Three estimates of the buffer overflow
// probability P(W > B) are provided:
//
//   - Bahadur-Rao asymptotic (Eq. 7): exp(−N·I(c,b) − ½log[4πN·I(c,b)]),
//     where the rate function I(c,b) = inf_{m≥1} [b+m(c−μ)]²/(2V(m)) and
//     V(m) = σ²[m + 2Σ_{i<m}(m−i)r(i)] is the variance of an m-frame sum.
//   - Large-N asymptotic (Courcoubetis-Weber): exp(−N·I(c,b)).
//   - Weibull approximation for exact-LRD Gaussian sources (Eq. 6 and the
//     paper's Appendix), the closed form obtained when V(m) ≈ σ²g·m^{2H}.
//
// The minimiser m*_b of the rate function is the Critical Time Scale: the
// number of frame correlations that actually determine the overflow
// probability. Everything the paper argues follows from how m*_b grows
// with b — see CTS and its tests.
package core

import (
	"fmt"
	"math"

	"repro/internal/traffic"
)

// Operating describes a multiplexer operating point in per-source units.
type Operating struct {
	C float64 // bandwidth per source c, cells/frame
	B float64 // buffer space per source b, cells
	N int     // number of multiplexed sources
}

// Validate checks the operating point against model m (stability requires
// c > μ).
func (o Operating) Validate(m traffic.Model) error {
	if o.N < 1 {
		return fmt.Errorf("core: N = %d must be ≥ 1", o.N)
	}
	if o.B < 0 {
		return fmt.Errorf("core: buffer b = %v must be non-negative", o.B)
	}
	if o.C <= m.Mean() {
		return fmt.Errorf("core: bandwidth c = %v must exceed the mean %v for stability",
			o.C, m.Mean())
	}
	return nil
}

// VarianceOfSum is an incremental evaluator of V(m) = Var(Σ_{i=1..m} Y_i)
// for a process with the given variance and ACF. Each Advance costs O(1)
// plus one ACF evaluation.
type VarianceOfSum struct {
	model traffic.Model
	m     int     // current horizon
	s1    float64 // Σ_{i=1}^{m−1} r(i)
	s2    float64 // Σ_{i=1}^{m−1} i·r(i)
}

// NewVarianceOfSum starts the accumulator at m = 1, where V(1) = σ².
func NewVarianceOfSum(m traffic.Model) *VarianceOfSum {
	return &VarianceOfSum{model: m, m: 1}
}

// M returns the current horizon m.
func (v *VarianceOfSum) M() int { return v.m }

// Value returns V(m) at the current horizon.
func (v *VarianceOfSum) Value() float64 {
	fm := float64(v.m)
	return v.model.Variance() * (fm + 2*(fm*v.s1-v.s2))
}

// Advance moves the horizon from m to m+1.
func (v *VarianceOfSum) Advance() {
	r := v.model.ACF(v.m)
	v.s1 += r
	v.s2 += float64(v.m) * r
	v.m++
}

// AggregateVariance returns V(1..upTo) for model m as a slice indexed from
// 0 (entry i holds V(i+1)), served from the model's shared Moments cache.
func AggregateVariance(m traffic.Model, upTo int) []float64 {
	if upTo < 1 {
		return nil
	}
	mo := Moments(m)
	out := make([]float64, upTo)
	for i := range out {
		out[i] = mo.VarSum(i + 1)
	}
	return out
}

// CTSResult reports a critical time scale computation.
type CTSResult struct {
	M         int     // the critical time scale m*_b
	Rate      float64 // the rate function I(c,b) at the minimiser
	Converged bool    // false if the scan hit MaxM before the stop rule fired
}

// DefaultMaxM caps the CTS scan. The CTS grows like K·b with
// K ≤ H/((1−H)(c−μ)); for every experiment in the paper the scan ends long
// before this bound.
const DefaultMaxM = 4 << 20

// CTS computes the critical time scale m*_b = arginf_{m≥1} f(c,b,m)/2V(m)
// with f = [b + m(c−μ)]², along with the rate function value. maxM ≤ 0
// selects DefaultMaxM.
//
// The scan (solver.IntArgminSlack) stops once m is four times past the
// incumbent minimiser, plus a slack of 64 lags, and either of two rules
// fires. The first, for every model, is that the objective has tripled: a
// heuristic, since V(m) = o(m²) for any process with r(k) → 0 makes the
// objective diverge, but not necessarily monotonically. The second is a
// proof, for a model that declares a non-increasing ACF
// (traffic.NonIncreasingACF): then V(m)/m² does not increase, so
// F(m) = (c−μ)²m²/2V(m) bounds the objective at every later m from below,
// and the scan stops once F(m) exceeds the incumbent (ctsFloor). The floor
// returns the same M and Rate as the tripling rule alone, bit for bit, and
// ends an LRD model's scan at about 4·m*b rather than hundreds of times
// past it; Converged then reads true, also where the tripling rule would
// have run into maxM. V(m) is
// served from the model's shared Moments cache, so repeated CTS calls
// against one model — buffer sweeps, admission-control searches — cost
// one ACF walk in total.
func CTS(model traffic.Model, op Operating, maxM int) (CTSResult, error) {
	return CTSMoments(Moments(model), op, maxM)
}

// RateFunction returns I(c,b) alone; see CTS.
func RateFunction(model traffic.Model, op Operating, maxM int) (float64, error) {
	res, err := CTS(model, op, maxM)
	return res.Rate, err
}

// BahadurRao returns the Bahadur-Rao estimate of the buffer overflow
// probability (paper Eq. 7):
//
//	Ψ(c,b,N) ≈ exp(−N·I(c,b) − ½·log[4π·N·I(c,b)]).
//
// For b = 0 and I → 0 the correction term diverges; the estimate is clamped
// to 1.
func BahadurRao(model traffic.Model, op Operating, maxM int) (float64, error) {
	res, err := CTS(model, op, maxM)
	if err != nil {
		return 0, err
	}
	return brFromTotalRate(float64(op.N) * res.Rate), nil
}

// brFromTotalRate converts a total (population-scaled) rate-function value
// into the Bahadur-Rao probability estimate, clamped to [0, 1].
func brFromTotalRate(ni float64) float64 {
	if ni <= 0 {
		return 1
	}
	p := math.Exp(-ni - 0.5*math.Log(4*math.Pi*ni))
	if p > 1 {
		p = 1
	}
	probeProb.CheckPositive(p)
	return p
}

// LargeN returns the Courcoubetis-Weber large-N estimate exp(−N·I(c,b)),
// i.e. the Bahadur-Rao estimate without the prefactor correction.
func LargeN(model traffic.Model, op Operating, maxM int) (float64, error) {
	res, err := CTS(model, op, maxM)
	if err != nil {
		return 0, err
	}
	return math.Exp(-float64(op.N) * res.Rate), nil
}

// LRDParams carries the closed-form ingredients of the Weibull asymptotic
// for N homogeneous Gaussian exact-LRD sources (paper Eq. 6).
type LRDParams struct {
	H      float64 // Hurst parameter, 0.5 < H < 1 (H = 0.5 allowed: log-linear case)
	G      float64 // g(Ts) from the exact-LRD ACF (Eq. 2), 0 < g ≤ 1
	Mu     float64 // mean frame size per source, cells/frame
	Sigma2 float64 // frame-size variance per source
}

// Kappa returns κ(H) = H^H·(1−H)^{1−H}.
func Kappa(h float64) float64 {
	return math.Pow(h, h) * math.Pow(1-h, 1-h)
}

// WeibullJ returns the Weibull exponent
// J(N,b,c) = N^{2H−1}·(c−μ)^{2H}/(2g·σ²·κ(H)²) · B^{2−2H}, with B = N·b the
// total buffer.
func WeibullJ(p LRDParams, op Operating) float64 {
	totalB := float64(op.N) * op.B
	return math.Pow(float64(op.N), 2*p.H-1) *
		math.Pow(op.C-p.Mu, 2*p.H) /
		(2 * p.G * p.Sigma2 * Kappa(p.H) * Kappa(p.H)) *
		math.Pow(totalB, 2-2*p.H)
}

// WeibullLRD returns the paper's Eq. 6 estimate
// P(W > B) ≈ exp[−J − ½·log(4πJ)], the closed-form Bahadur-Rao asymptotic
// for exact-LRD Gaussian input. It reduces to log-linear decay in B when
// H = 1/2.
func WeibullLRD(p LRDParams, op Operating) (float64, error) {
	if p.H < 0.5 || p.H >= 1 {
		return 0, fmt.Errorf("core: Hurst parameter %v outside [0.5, 1)", p.H)
	}
	if p.G <= 0 || p.G > 1 {
		return 0, fmt.Errorf("core: g(Ts) = %v outside (0, 1]", p.G)
	}
	if p.Sigma2 <= 0 {
		return 0, fmt.Errorf("core: variance %v must be positive", p.Sigma2)
	}
	if op.C <= p.Mu {
		return 0, fmt.Errorf("core: bandwidth %v must exceed mean %v", op.C, p.Mu)
	}
	if op.N < 1 || op.B < 0 {
		return 0, fmt.Errorf("core: invalid operating point N=%d b=%v", op.N, op.B)
	}
	j := WeibullJ(p, op)
	if j <= 0 {
		return 1, nil
	}
	pr := math.Exp(-j - 0.5*math.Log(4*math.Pi*j))
	if pr > 1 {
		pr = 1
	}
	probeProb.CheckPositive(pr)
	return pr, nil
}

// CTSSlopeLRD returns the asymptotic CTS-per-buffer slope for a Gaussian
// exact-LRD process, K = H/((1−H)(c−μ)) (paper Appendix: x* = K·b).
func CTSSlopeLRD(h, c, mu float64) float64 {
	return h / ((1 - h) * (c - mu))
}

// CTSSlopeAR1 returns the asymptotic CTS-per-buffer slope for a Gaussian
// AR(1)-like process, K = 1/(c−μ) (paper §4.2, citing Courcoubetis-Weber).
func CTSSlopeAR1(c, mu float64) float64 {
	return 1 / (c - mu)
}

// BufferCellsToSeconds converts a per-source buffer allocation b (cells) at
// per-source bandwidth c (cells/frame) into the maximum queueing delay in
// seconds: the time to drain B = N·b cells at C = N·c cells per Ts.
func BufferCellsToSeconds(b, c, ts float64) float64 {
	return b / c * ts
}

// BufferSecondsToCells inverts BufferCellsToSeconds.
func BufferSecondsToCells(d, c, ts float64) float64 {
	return d / ts * c
}
