// Package fbndp implements the Fractal-Binomial-Noise-Driven Poisson
// process of Ryu and Lowen (paper §3.2, [19, 20]): M independent fractal
// ON/OFF processes with i.i.d. heavy-tailed ON and OFF durations are summed
// into a fractal binomial rate process, which drives a doubly stochastic
// Poisson point process. Counting arrivals per video frame yields an exact
// long-range-dependent frame-size process.
//
// Duration density (paper §3.2), with γ = 2−α and 1 < γ < 2:
//
//	p(t) = (γ/A)·exp(−γt/A)          for t ≤ A   (exponential body)
//	p(t) = γ·e^{−γ}·A^γ·t^{−(γ+1)}    for t > A   (Pareto tail)
//
// The density is continuous at A and its tail index γ < 2 gives the phase
// process infinite variance, which is the source of long-range dependence.
// The four model parameters are α, A, M and R (Poisson rate while ON); the
// derived statistics are
//
//	H  = (α+1)/2
//	λ  = R·M/2
//	T0 = { α(α+1)(2−α)^{−1}·[(1−α)e^{2−α}+1] · R^{−1}·A^{α−1} }^{1/α}
//
// and for the frame-count process L_n = N(nTs) − N((n−1)Ts):
//
//	E[L]   = λTs
//	Var[L] = [1 + (Ts/T0)^α]·λTs
//	r(k)   = Ts^α/(Ts^α+T0^α) · ½∇²(k^{α+1})
package fbndp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fgn"
	"repro/internal/randx"
	"repro/internal/traffic"
)

// Params is the engineering-level parameterisation of an FBNDP frame-size
// source: the statistics a traffic modeller specifies directly.
type Params struct {
	Alpha  float64 // fractal exponent, 0 < α < 1; Hurst H = (α+1)/2
	Lambda float64 // mean arrival rate in cells/sec
	T0     float64 // fractal onset time in seconds
	M      int     // number of superposed ON/OFF processes
	Ts     float64 // frame duration in seconds
}

// Validate checks that the parameters define a proper FBNDP: the tail
// index γ = 2−α must lie in (1, 2) as computed, and the crossover A must
// be finite and positive. Within an ulp of α = 0 or 1, γ rounds onto 2
// or 1, and near α = 1 the exponent 1/(α−1) drives A to 0 or +Inf.
func (p Params) Validate() error {
	if !(p.Alpha > 0 && p.Alpha < 1) {
		return fmt.Errorf("fbndp: alpha %v outside (0, 1)", p.Alpha)
	}
	if g := 2 - p.Alpha; !(g > 1 && g < 2) {
		return fmt.Errorf("fbndp: alpha %v gives tail index γ = %v outside (1, 2)", p.Alpha, g)
	}
	if p.Lambda <= 0 {
		return fmt.Errorf("fbndp: lambda %v must be positive", p.Lambda)
	}
	if p.T0 <= 0 {
		return fmt.Errorf("fbndp: T0 %v must be positive", p.T0)
	}
	if p.M < 1 {
		return fmt.Errorf("fbndp: M %d must be at least 1", p.M)
	}
	if p.Ts <= 0 {
		return fmt.Errorf("fbndp: Ts %v must be positive", p.Ts)
	}
	if a := p.CutoffA(); !(a > 0) || math.IsInf(a, 1) {
		return fmt.Errorf("fbndp: alpha %v gives crossover A = %v, not finite and positive", p.Alpha, a)
	}
	return nil
}

// Hurst returns H = (α+1)/2.
func (p Params) Hurst() float64 { return (p.Alpha + 1) / 2 }

// kAlpha returns the constant α(α+1)(2−α)^{−1}[(1−α)e^{2−α}+1] appearing in
// the fractal onset time relation.
func kAlpha(alpha float64) float64 {
	return alpha * (alpha + 1) / (2 - alpha) * ((1-alpha)*math.Exp(2-alpha) + 1)
}

// OnRate returns R, the Poisson rate of one ON/OFF process while ON,
// determined by λ = RM/2 (each process is ON half the time in equilibrium).
func (p Params) OnRate() float64 { return 2 * p.Lambda / float64(p.M) }

// CutoffA inverts the fractal onset time relation for A, the crossover
// duration between the exponential body and the Pareto tail:
//
//	T0^α = K(α)·R^{−1}·A^{α−1}  ⇒  A = (T0^α·R/K(α))^{1/(α−1)}.
func (p Params) CutoffA() float64 {
	r := p.OnRate()
	base := math.Pow(p.T0, p.Alpha) * r / kAlpha(p.Alpha)
	return math.Pow(base, 1/(p.Alpha-1))
}

// Mean returns E[L] = λTs in cells/frame.
func (p Params) Mean() float64 { return p.Lambda * p.Ts }

// Variance returns Var[L] = [1 + (Ts/T0)^α]·λTs.
func (p Params) Variance() float64 {
	return (1 + math.Pow(p.Ts/p.T0, p.Alpha)) * p.Lambda * p.Ts
}

// ACF returns the frame-count autocorrelation at lag k ≥ 0:
// r(k) = Ts^α/(Ts^α+T0^α) · ½∇²(k^{α+1}), with r(0) = 1.
func (p Params) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	return p.frac() * fgn.HalfSecondDiff(k, p.Alpha+1)
}

// ACFRange implements traffic.ACFRanger: dst[i] = ACF(from+i), bit for
// bit, for from ≥ 0. It fills ½∇²(k^{α+1}) with fgn.HalfSecondDiffRange,
// one Pow per lag, and scales it by the fractal weight computed once.
func (p Params) ACFRange(dst []float64, from int) {
	if from == 0 && len(dst) > 0 {
		dst[0] = 1
		dst, from = dst[1:], 1
	}
	fgn.HalfSecondDiffRange(dst, from, p.Alpha+1)
	frac := p.frac()
	for i := range dst {
		dst[i] *= frac
	}
}

// frac returns the fractal weight Ts^α/(Ts^α+T0^α) = 1/(1+(T0/Ts)^α).
func (p Params) frac() float64 { return 1 / (1 + math.Pow(p.T0/p.Ts, p.Alpha)) }

// SolveT0 returns the fractal onset time that produces the requested
// frame-count variance for the given mean and α:
// variance/mean = 1 + (Ts/T0)^α ⇒ T0 = Ts/(variance/mean − 1)^{1/α}.
// This is how the paper "determines T0 from the given mean, variance and α
// of each model" (§5.1 item 8).
func SolveT0(meanFrame, varFrame, alpha, ts float64) (float64, error) {
	if meanFrame <= 0 || varFrame <= meanFrame {
		return 0, fmt.Errorf("fbndp: need variance %v > mean %v > 0 (over-dispersion)", varFrame, meanFrame)
	}
	if alpha <= 0 || alpha >= 1 {
		return 0, fmt.Errorf("fbndp: alpha %v outside (0, 1)", alpha)
	}
	ratio := varFrame/meanFrame - 1
	return ts / math.Pow(ratio, 1/alpha), nil
}

// Model is an FBNDP frame-size source implementing traffic.Model.
type Model struct {
	P    Params
	name string
}

// NewModel validates p and wraps it as a traffic.Model.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{P: p, name: fmt.Sprintf("FBNDP(α=%.3g)", p.Alpha)}, nil
}

// Name implements traffic.Model.
func (m *Model) Name() string { return m.name }

// DrawVersion implements traffic.DrawVersioned.
func (m *Model) DrawVersion() string { return "fbndp.2" }

// SetName overrides the display name.
func (m *Model) SetName(name string) { m.name = name }

// Mean implements traffic.Model.
func (m *Model) Mean() float64 { return m.P.Mean() }

// Variance implements traffic.Model.
func (m *Model) Variance() float64 { return m.P.Variance() }

// ACF implements traffic.Model.
func (m *Model) ACF(k int) float64 { return m.P.ACF(k) }

// ACFRange implements traffic.ACFRanger.
func (m *Model) ACFRange(dst []float64, from int) { m.P.ACFRange(dst, from) }

// ACFNonIncreasing implements traffic.NonIncreasingACF: ½∇²(k^{α+1})
// decreases in k for 0 < α < 1, since k^{α+1} has a decreasing second
// derivative, and r(1) ≤ 2^α − 1 < 1 = r(0).
func (m *Model) ACFNonIncreasing() bool { return true }

// durations holds the constants of the heavy-tailed ON/OFF duration
// distribution and samples its equilibrium residual distribution. Fresh
// durations come from the ziggurat for γ, in units of A.
type durations struct {
	gamma   float64 // 2−α
	a       float64 // crossover A
	mean    float64 // E[T]
	intBody float64 // ∫_0^A (1−F) = A(1−e^{−γ})/γ
	a1g     float64 // A^{1−γ}
	eg      float64 // e^{γ}
	pag     float64 // A^{−γ}
}

func newDurations(alpha, a float64) durations {
	g := 2 - alpha
	emg := math.Exp(-g)
	return durations{
		gamma:   g,
		a:       a,
		mean:    a * ((1-(1+g)*emg)/g + g*emg/(g-1)),
		intBody: a * (1 - emg) / g,
		a1g:     math.Pow(a, 1-g),
		eg:      math.Exp(g),
		pag:     math.Pow(a, -g),
	}
}

// sampleResidual draws from the equilibrium residual-life distribution with
// density (1−F(t))/E[T], used to start each phase in steady state. Without
// this, sample paths begin with a long transient that suppresses the
// long-range dependence the model exists to produce.
//
// The integrated survival function is piecewise closed-form:
//
//	G(t) = ∫_0^t (1−F) = A(1−e^{−γt/A})/γ                         t ≤ A
//	G(t) = A(1−e^{−γ})/γ + e^{−γ}A^γ·(A^{1−γ}−t^{1−γ})/(γ−1)      t > A
//
// and G(∞) = E[T], so we solve G(t) = u·E[T] exactly in each branch.
func (d durations) sampleResidual(r *rand.Rand) float64 {
	y := r.Float64() * d.mean
	if y <= d.intBody {
		// A(1−e^{−γt/A})/γ = y ⇒ t = −(A/γ)·ln(1 − γy/A).
		return -d.a / d.gamma * math.Log(1-d.gamma*y/d.a)
	}
	y2 := y - d.intBody
	g := d.gamma
	// e^{−γ}A^γ(A^{1−γ}−t^{1−γ})/(γ−1) = y2
	// ⇒ t^{1−γ} = A^{1−γ} − y2(γ−1)e^{γ}A^{−γ}.
	t1g := d.a1g - y2*(g-1)*d.eg*d.pag
	if t1g <= 0 {
		// Rounding at u → 1; return a very long residual consistent with
		// the heavy tail rather than NaN.
		return d.a * 1e12
	}
	return math.Pow(t1g, 1/(1-g))
}

// phase is the state of one ON/OFF process.
type phase struct {
	on        bool
	remaining float64 // seconds until the next toggle
}

// generator produces frame counts from an FBNDP sample path. Fresh
// durations come from stream through the ziggurat; the residual starts
// and the Poisson counts come from rng, the stream's Rand view, so every
// draw advances one sequence.
type generator struct {
	p      Params
	dur    durations
	zig    *ziggurat
	r      float64 // ON rate in cells/sec
	stream *randx.Stream
	rng    *rand.Rand
	phases []phase
}

// NewGenerator implements traffic.Model. Every ON/OFF process starts in
// equilibrium: ON with probability 1/2 and a residual-life duration. The
// first generator for a given α builds its ziggurat tables.
func (m *Model) NewGenerator(seed int64) traffic.Generator {
	stream := randx.NewStream(seed)
	rng := stream.Rand()
	g := &generator{
		p:      m.P,
		dur:    newDurations(m.P.Alpha, m.P.CutoffA()),
		zig:    zigguratFor(2 - m.P.Alpha),
		r:      m.P.OnRate(),
		stream: stream,
		rng:    rng,
		phases: make([]phase, m.P.M),
	}
	for i := range g.phases {
		g.phases[i] = phase{
			on:        rng.Float64() < 0.5,
			remaining: g.dur.sampleResidual(rng),
		}
	}
	return g
}

// NextFrame advances every ON/OFF process by one frame duration,
// accumulates the total ON time, and draws the frame's cell count from a
// Poisson distribution with mean R × (total ON seconds).
func (g *generator) NextFrame() float64 { return g.frame() }

// Fill implements traffic.BlockGenerator: the M-fold superposition loop
// and the Poisson draws run over a whole chunk per virtual call, in the
// same draw order as the scalar protocol (bit-identical paths).
func (g *generator) Fill(dst []float64) {
	for i := range dst {
		dst[i] = g.frame()
	}
}

// frame advances the sample path one frame. Each toggle draws a fresh
// duration from the ziggurat. The V^v simulations' phase changes
// outnumber frames 100:1, so the loop runs on locals and takes the
// ziggurat's first try in line; only redraw is a call.
func (g *generator) frame() float64 {
	a, ts, zig, stream := g.dur.a, g.p.Ts, g.zig, g.stream
	var onTime float64
	for i := range g.phases {
		on, remaining := g.phases[i].on, g.phases[i].remaining
		left := ts
		for remaining < left {
			if on {
				onTime += remaining
			}
			left -= remaining
			on = !on
			k, x := zig.layer(stream.Uint64())
			if x >= zig.x[k+1] {
				x = zig.redraw(stream, k, x)
			}
			remaining = a * x
		}
		if on {
			onTime += left
		}
		g.phases[i] = phase{on: on, remaining: remaining - left}
	}
	return float64(randx.Poisson(g.rng, g.r*onTime))
}

// ErrInfeasible reports a parameter derivation with no valid solution.
var ErrInfeasible = errors.New("fbndp: infeasible parameter derivation")
