// Package mmpp implements the two-state Markov-modulated Poisson process,
// the classical short-range-dependent video source model of the
// pre-LRD literature (the "traditional Markovian models" the paper's §6
// contrasts with). A continuous-time Markov chain switches the arrival
// rate between r1 and r2; counting arrivals per frame gives a frame-size
// process whose autocorrelation decays geometrically, like DAR(1), but
// whose within-frame structure is a genuine point process.
//
// For the symmetric chain used here (equal sojourn rates θ/2, stationary
// probabilities ½/½) with rate gap Δ = r1 − r2 and frame duration Ts:
//
//	E[X]    = λTs,                λ = (r1+r2)/2
//	Var[X]  = λTs + (Δ²/2)·[Ts/θ − (1−e^{−θTs})/θ²]
//	Cov(k)  = (Δ²/4)·e^{−θ(k−1)Ts}·[(1−e^{−θTs})/θ]²,  k ≥ 1
//
// so r(k+1)/r(k) = e^{−θTs} exactly for k ≥ 1: geometric decay, with the
// lag-0 → lag-1 drop set by the Poisson noise floor.
package mmpp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/randx"
	"repro/internal/traffic"
)

// Params parameterises the symmetric 2-state MMPP.
type Params struct {
	R1    float64 // arrival rate in the high state, cells/sec
	R2    float64 // arrival rate in the low state, cells/sec
	Theta float64 // θ = sum of the two switching rates (1/mean cycle·2), 1/sec
	Ts    float64 // frame duration, seconds
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.R1 < 0 || p.R2 < 0 || p.R1+p.R2 == 0 {
		return fmt.Errorf("mmpp: rates (%v, %v) must be non-negative and not both zero", p.R1, p.R2)
	}
	if p.R1 < p.R2 {
		return fmt.Errorf("mmpp: want R1 ≥ R2, got %v < %v", p.R1, p.R2)
	}
	if p.Theta <= 0 {
		return fmt.Errorf("mmpp: theta %v must be positive", p.Theta)
	}
	if p.Ts <= 0 {
		return fmt.Errorf("mmpp: frame duration %v must be positive", p.Ts)
	}
	return nil
}

// Model is a 2-state MMPP frame-size source implementing traffic.Model.
type Model struct {
	P    Params
	name string
}

// New validates p and wraps it as a Model.
func New(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{P: p, name: "MMPP2"}, nil
}

// Fit constructs the symmetric MMPP matching a target frame-size mean,
// variance and geometric ACF ratio a = r(2)/r(1) ∈ (0, 1) at frame
// duration ts — the continuous-time analogue of fitting a DAR(1).
// Feasibility requires the implied low rate to stay non-negative
// (sufficient over-dispersion for the chosen a).
func Fit(mean, variance, a, ts float64) (*Model, error) {
	if mean <= 0 || variance <= mean {
		return nil, fmt.Errorf("mmpp: need variance %v > mean %v > 0", variance, mean)
	}
	if a <= 0 || a >= 1 {
		return nil, fmt.Errorf("mmpp: decay ratio %v outside (0, 1)", a)
	}
	theta := -math.Log(a) / ts
	lambda := mean / ts
	// Var = mean + (Δ²/2)·[ts/θ − (1−a)/θ²]  (e^{−θts} = a).
	bracket := ts/theta - (1-a)/(theta*theta)
	if bracket <= 0 {
		return nil, fmt.Errorf("mmpp: degenerate variance bracket for a=%v", a)
	}
	delta2 := 2 * (variance - mean) / bracket
	delta := math.Sqrt(delta2)
	r1 := lambda + delta/2
	r2 := lambda - delta/2
	if r2 < 0 {
		return nil, fmt.Errorf("mmpp: target (mean=%v, var=%v, a=%v) infeasible: low rate %v < 0",
			mean, variance, a, r2)
	}
	m, err := New(Params{R1: r1, R2: r2, Theta: theta, Ts: ts})
	if err != nil {
		return nil, err
	}
	m.name = fmt.Sprintf("MMPP2(a=%g)", a)
	return m, nil
}

// Name implements traffic.Model.
func (m *Model) Name() string { return m.name }

// DrawVersion implements traffic.DrawVersioned.
func (m *Model) DrawVersion() string { return "mmpp.1" }

// SetName overrides the display name.
func (m *Model) SetName(name string) { m.name = name }

// lambda returns the mean arrival rate (r1+r2)/2.
func (m *Model) lambda() float64 { return (m.P.R1 + m.P.R2) / 2 }

// Mean implements traffic.Model.
func (m *Model) Mean() float64 { return m.lambda() * m.P.Ts }

// delta2 returns (r1−r2)².
func (m *Model) delta2() float64 {
	d := m.P.R1 - m.P.R2
	return d * d
}

// Variance implements traffic.Model.
func (m *Model) Variance() float64 {
	th, ts := m.P.Theta, m.P.Ts
	return m.Mean() + m.delta2()/2*(ts/th-(1-math.Exp(-th*ts))/(th*th))
}

// ACF implements traffic.Model.
func (m *Model) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	th, ts := m.P.Theta, m.P.Ts
	g := (1 - math.Exp(-th*ts)) / th
	cov := m.delta2() / 4 * math.Exp(-th*ts*float64(k-1)) * g * g
	return cov / m.Variance()
}

// generator simulates the CTMC phase and draws Poisson counts from the
// integrated rate over each frame.
type generator struct {
	p     Params
	rng   *rand.Rand
	high  bool
	until float64 // time of next phase switch
	now   float64
}

// NewGenerator implements traffic.Model, starting the chain in its
// stationary distribution (each state probability ½, exponential residual
// by memorylessness).
func (m *Model) NewGenerator(seed int64) traffic.Generator {
	rng := randx.NewRand(seed)
	g := &generator{p: m.P, rng: rng, high: rng.Float64() < 0.5}
	g.until = g.rng.ExpFloat64() * 2 / m.P.Theta // sojourn rate θ/2
	return g
}

// NextFrame integrates the rate over one frame and draws the count.
func (g *generator) NextFrame() float64 { return g.frame() }

// Fill implements traffic.BlockGenerator in the scalar draw order
// (bit-identical paths).
func (g *generator) Fill(dst []float64) {
	for i := range dst {
		dst[i] = g.frame()
	}
}

// frame integrates the rate over one frame and draws the count.
func (g *generator) frame() float64 {
	end := g.now + g.p.Ts
	var exposure float64 // ∫ rate dt over the frame
	for g.until < end {
		exposure += g.rate() * (g.until - g.now)
		g.now = g.until
		g.high = !g.high
		g.until = g.now + g.rng.ExpFloat64()*2/g.p.Theta
	}
	exposure += g.rate() * (end - g.now)
	g.now = end
	return float64(randx.Poisson(g.rng, exposure))
}

func (g *generator) rate() float64 {
	if g.high {
		return g.p.R1
	}
	return g.p.R2
}
