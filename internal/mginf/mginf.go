// Package mginf implements the M/G/∞ input process of Cox — the model
// behind the hyperbolic-decay results of Likhanov, Tsybakov & Georganas
// and Parulekar & Makowski that the paper's §4.1 discusses. Sessions
// arrive as a Poisson process, hold for i.i.d. Pareto-tailed durations,
// and each active session contributes a constant cell rate; sampling the
// occupancy at frame boundaries yields an asymptotically LRD frame-size
// process with Poisson marginal.
//
// With session durations S Pareto(γ, s0) — P(S > u) = (s0/u)^γ for
// u ≥ s0, 1 < γ < 2 — the stationary occupancy N is Poisson with mean
// ν = λ_s·E[S], E[S] = s0·γ/(γ−1), and the sampled-occupancy ACF is
//
//	r(k) = (1/E[S])·∫_{kTs}^∞ P(S > u) du
//	     = 1 − (γ−1)kTs/(γ s0)                      kTs ≤ s0
//	     = (1/γ)·(kTs/s0)^{1−γ}                     kTs > s0
//
// so r(k) ~ k^{1−γ}: an asymptotic LRD process with H = (3−γ)/2.
package mginf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/randx"
	"repro/internal/traffic"
)

// Params parameterises an M/G/∞ frame-size source.
type Params struct {
	SessionRate float64 // λ_s, session arrivals per second
	MinHold     float64 // s0, minimum session duration in seconds
	Gamma       float64 // Pareto tail index, 1 < γ < 2
	Rate        float64 // ρ, cells/frame contributed by one active session
	Ts          float64 // frame duration in seconds
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.SessionRate <= 0 {
		return fmt.Errorf("mginf: session rate %v must be positive", p.SessionRate)
	}
	if p.MinHold <= 0 {
		return fmt.Errorf("mginf: minimum hold %v must be positive", p.MinHold)
	}
	if p.Gamma <= 1 || p.Gamma >= 2 {
		return fmt.Errorf("mginf: gamma %v outside (1, 2)", p.Gamma)
	}
	if p.Rate <= 0 {
		return fmt.Errorf("mginf: per-session rate %v must be positive", p.Rate)
	}
	if p.Ts <= 0 {
		return fmt.Errorf("mginf: frame duration %v must be positive", p.Ts)
	}
	return nil
}

// MeanHold returns E[S] = s0·γ/(γ−1).
func (p Params) MeanHold() float64 {
	return p.MinHold * p.Gamma / (p.Gamma - 1)
}

// Occupancy returns ν = λ_s·E[S], the mean number of active sessions.
func (p Params) Occupancy() float64 { return p.SessionRate * p.MeanHold() }

// Hurst returns H = (3−γ)/2.
func (p Params) Hurst() float64 { return (3 - p.Gamma) / 2 }

// Model is an M/G/∞ frame-size source implementing traffic.Model.
type Model struct {
	P    Params
	name string
}

// New validates p and wraps it as a traffic.Model.
func New(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{P: p, name: fmt.Sprintf("M/G/inf(γ=%.3g)", p.Gamma)}, nil
}

// NewFromMoments builds an M/G/∞ model hitting the requested frame-size
// mean and variance (variance > mean, since the occupancy is Poisson and
// ρ = variance/mean must exceed 1 cell/frame), Hurst parameter (in
// (0.5, 1)) and minimum session hold s0.
func NewFromMoments(mean, variance, hurst, minHold, ts float64) (*Model, error) {
	if mean <= 0 || variance <= mean {
		return nil, fmt.Errorf("mginf: need variance %v > mean %v > 0", variance, mean)
	}
	if hurst <= 0.5 || hurst >= 1 {
		return nil, fmt.Errorf("mginf: Hurst %v outside (0.5, 1)", hurst)
	}
	gamma := 3 - 2*hurst
	rho := variance / mean
	nu := mean / rho
	meanHold := minHold * gamma / (gamma - 1)
	p := Params{
		SessionRate: nu / meanHold,
		MinHold:     minHold,
		Gamma:       gamma,
		Rate:        rho,
		Ts:          ts,
	}
	return New(p)
}

// Name implements traffic.Model.
func (m *Model) Name() string { return m.name }

// DrawVersion implements traffic.DrawVersioned.
func (m *Model) DrawVersion() string { return "mginf.1" }

// SetName overrides the display name.
func (m *Model) SetName(name string) { m.name = name }

// Mean implements traffic.Model: ρ·ν cells/frame.
func (m *Model) Mean() float64 { return m.P.Rate * m.P.Occupancy() }

// Variance implements traffic.Model: ρ²·ν (Poisson occupancy).
func (m *Model) Variance() float64 { return m.P.Rate * m.P.Rate * m.P.Occupancy() }

// ACF implements traffic.Model (sampled-occupancy autocorrelation; see the
// package comment for the closed form).
func (m *Model) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	t := float64(k) * m.P.Ts
	g, s0 := m.P.Gamma, m.P.MinHold
	if t <= s0 {
		return 1 - (g-1)*t/(g*s0)
	}
	return math.Pow(t/s0, 1-g) / g
}

// expiryHeap is a min-heap of session expiry times. It is typed rather
// than built on container/heap, whose interface{} Push and Pop box every
// float64; push and pop follow container/heap's sift steps exactly, so
// the heap layout, and every popped minimum, is the same.
type expiryHeap []float64

func (h *expiryHeap) push(x float64) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j] < q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *expiryHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r] < q[j] {
			j = r
		}
		if !(q[j] < q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
}

// generator simulates the session process and samples occupancy at frame
// boundaries.
type generator struct {
	p   Params
	rng *rand.Rand
	exp expiryHeap
	now float64
}

// NewGenerator implements traffic.Model. The session population starts in
// equilibrium: Poisson(ν) sessions with equilibrium residual holds, so the
// sampled process is stationary from the first frame.
func (m *Model) NewGenerator(seed int64) traffic.Generator {
	rng := randx.NewRand(seed)
	g := &generator{p: m.P, rng: rng}
	n := randx.Poisson(rng, m.P.Occupancy())
	for i := int64(0); i < n; i++ {
		g.exp.push(g.sampleResidual())
	}
	return g
}

// sampleHold draws a fresh Pareto(γ, s0) session duration.
func (g *generator) sampleHold() float64 {
	// 1−Float64() ∈ (0, 1] avoids an infinite duration at u = 0.
	return g.p.MinHold * math.Pow(1-g.rng.Float64(), -1/g.p.Gamma)
}

// sampleResidual draws from the equilibrium residual-life distribution of
// the Pareto hold: density P(S>t)/E[S], solved in closed form piecewise
// (uniform below s0, power tail above).
func (g *generator) sampleResidual() float64 {
	y := g.rng.Float64() * g.p.MeanHold()
	s0, gam := g.p.MinHold, g.p.Gamma
	if y <= s0 {
		return y
	}
	// y − s0 = (s0/(γ−1))·(1 − (s0/t)^{γ−1})
	base := 1 - (gam-1)*(y-s0)/s0
	if base <= 0 {
		return s0 * 1e12 // u → 1 rounding guard: a very long residual
	}
	return s0 * math.Pow(base, -1/(gam-1))
}

// NextFrame implements traffic.Generator: advance one frame, admit the
// frame's Poisson arrivals (with uniform arrival instants), expire finished
// sessions, and return ρ × (occupancy at the frame boundary).
func (g *generator) NextFrame() float64 { return g.frame() }

// Fill implements traffic.BlockGenerator: the session bookkeeping runs
// over a whole chunk per virtual call, in the same draw order as the
// scalar protocol (bit-identical paths).
func (g *generator) Fill(dst []float64) {
	for i := range dst {
		dst[i] = g.frame()
	}
}

// frame advances the session process one frame.
func (g *generator) frame() float64 {
	next := g.now + g.p.Ts
	arrivals := randx.Poisson(g.rng, g.p.SessionRate*g.p.Ts)
	for i := int64(0); i < arrivals; i++ {
		at := g.now + g.rng.Float64()*g.p.Ts
		end := at + g.sampleHold()
		if end > next {
			g.exp.push(end)
		}
	}
	g.now = next
	for len(g.exp) > 0 && g.exp[0] <= g.now {
		g.exp.pop()
	}
	return g.p.Rate * float64(len(g.exp))
}
