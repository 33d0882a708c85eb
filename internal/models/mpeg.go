package models

import (
	"fmt"
	"strings"

	"repro/internal/randx"
	"repro/internal/traffic"
)

// MPEG is a cyclostationary MPEG-style source: a wide-sense-stationary
// activity process modulated by the deterministic periodic frame-type
// pattern of a group of pictures (GOP), X_n = w_{φ+n mod P}·B_n with a
// uniformly random phase φ. This is the paper's §6.2 future-work item
// ("finding CTS of various types of traffic sources including MPEG-coded
// video"): the I/P/B size periodicity adds strong correlation ripples at
// multiples of the GOP period on top of the base process's decay.
//
// With the random phase the process is WSS, with phase-averaged moments
//
//	μ   = w̄·μ_B
//	σ²  = avg(w²)·(σ_B²+μ_B²) − μ²
//	c(k) = W(k)·(σ_B²·r_B(k)+μ_B²) − w̄²·μ_B²,  W(k) = avg_n w_n·w_{n+k}
//
// so the ACF r(k) = c(k)/c(0) carries both the base decay and the
// periodic W(k) ripple, and can be fed to the CTS machinery unchanged.
type MPEG struct {
	base    traffic.Model
	weights []float64
	name    string
}

// TypicalGOP is a common 9-frame pattern with I:P:B size ratios of
// roughly 5:3:1, normalised by NewMPEG so the mean rate is preserved.
const TypicalGOP = "IBBPBBPBB"

// GOPWeights converts an I/P/B pattern string into raw frame-size weights
// using the given per-type sizes.
func GOPWeights(pattern string, i, p, b float64) ([]float64, error) {
	if pattern == "" {
		return nil, fmt.Errorf("models: empty GOP pattern")
	}
	out := make([]float64, 0, len(pattern))
	for _, c := range strings.ToUpper(pattern) {
		switch c {
		case 'I':
			out = append(out, i)
		case 'P':
			out = append(out, p)
		case 'B':
			out = append(out, b)
		default:
			return nil, fmt.Errorf("models: GOP pattern contains %q (want I, P, B)", c)
		}
	}
	return out, nil
}

// NewMPEG wraps base with the periodic weights, which are rescaled to
// average 1 so the mean frame size is unchanged. All weights must be
// positive and the period at least 2.
func NewMPEG(base traffic.Model, weights []float64) (*MPEG, error) {
	if base == nil {
		return nil, fmt.Errorf("models: nil base model")
	}
	if len(weights) < 2 {
		return nil, fmt.Errorf("models: GOP period %d must be ≥ 2", len(weights))
	}
	var sum float64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("models: non-positive GOP weight w[%d] = %v", i, w)
		}
		sum += w
	}
	mean := sum / float64(len(weights))
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / mean
	}
	return &MPEG{
		base:    base,
		weights: norm,
		name:    fmt.Sprintf("MPEG[%s]", base.Name()),
	}, nil
}

// Name implements traffic.Model.
func (m *MPEG) Name() string { return m.name }

// DrawVersion implements traffic.DrawVersioned: the GOP weights draw
// nothing, so the paths are the base's.
func (m *MPEG) DrawVersion() string { return traffic.DrawVersion(m.base) }

// Period returns the GOP length P.
func (m *MPEG) Period() int { return len(m.weights) }

// Weights returns a copy of the normalised per-position weights.
func (m *MPEG) Weights() []float64 { return append([]float64(nil), m.weights...) }

// wBar2 returns avg(w²); avg(w) is 1 by construction.
func (m *MPEG) wBar2() float64 {
	var s float64
	for _, w := range m.weights {
		s += w * w
	}
	return s / float64(len(m.weights))
}

// weightCorr returns W(k) = avg_n w_n·w_{n+k}, periodic in k.
func (m *MPEG) weightCorr(k int) float64 {
	p := len(m.weights)
	k = ((k % p) + p) % p
	var s float64
	for n := 0; n < p; n++ {
		s += m.weights[n] * m.weights[(n+k)%p]
	}
	return s / float64(p)
}

// Mean implements traffic.Model.
func (m *MPEG) Mean() float64 { return m.base.Mean() }

// covariance returns the phase-averaged autocovariance c(k).
func (m *MPEG) covariance(k int) float64 {
	mb := m.base.Mean()
	vb := m.base.Variance()
	return m.weightCorr(k)*(vb*m.base.ACF(k)+mb*mb) - mb*mb
}

// Variance implements traffic.Model: c(0) = avg(w²)(σ_B²+μ_B²) − μ_B².
func (m *MPEG) Variance() float64 { return m.covariance(0) }

// ACF implements traffic.Model.
func (m *MPEG) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	return m.covariance(k) / m.covariance(0)
}

// NewGenerator implements traffic.Model: the base path scaled by the GOP
// weights from a uniformly random starting phase.
func (m *MPEG) NewGenerator(seed int64) traffic.Generator {
	rng := randx.NewRand(seed)
	phase := rng.Intn(len(m.weights))
	g := m.base.NewGenerator(rng.Int63())
	return &mpegGen{weights: m.weights, phase: phase, g: g, b: traffic.Blocks(g)}
}

// mpegGen modulates a base sample path by the periodic GOP weights.
type mpegGen struct {
	weights []float64
	phase   int
	g       traffic.Generator
	b       traffic.BlockGenerator
}

// NextFrame implements traffic.Generator.
func (g *mpegGen) NextFrame() float64 {
	w := g.weights[g.phase]
	g.phase = (g.phase + 1) % len(g.weights)
	return w * g.g.NextFrame()
}

// Fill implements traffic.BlockGenerator: one bulk pull from the base
// generator, then the periodic scaling in place (bit-identical to the
// scalar protocol).
func (g *mpegGen) Fill(dst []float64) {
	g.b.Fill(dst)
	for i := range dst {
		dst[i] *= g.weights[g.phase]
		g.phase = (g.phase + 1) % len(g.weights)
	}
}
