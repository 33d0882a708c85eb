// Package models assembles the paper's four VBR video source models from
// the DAR and FBNDP substrates (paper §3, §5.1, Table 1):
//
//   - V^v — FBNDP + DAR(1) with the long-term correlation weight
//     v = σ²_X/σ²_Y swept while the lag-1 correlation is held fixed.
//   - Z^a — FBNDP + DAR(1) with v = 1 and the DAR(1) lag-1 correlation a
//     swept while the Hurst parameter is held fixed.
//   - S — a DAR(p) Markov model that exactly matches the first p
//     autocorrelations of a given Z^a.
//   - L — a pure FBNDP exact-LRD model whose ACF tail matches Z^a's.
//
// Every model shares the same Gaussian frame-size marginal: mean 500
// cells/frame, variance 5000, at 25 frames/s (Ts = 40 ms), so differences
// in queueing behaviour are attributable purely to second-order structure.
package models

import (
	"fmt"
	"math"

	"repro/internal/dar"
	"repro/internal/fbndp"
	"repro/internal/randx"
	"repro/internal/traffic"
)

// Canonical evaluation constants (paper §5.1).
const (
	// FrameRate is the video frame rate in frames/sec.
	FrameRate = 25.0
	// Ts is the frame duration in seconds.
	Ts = 1.0 / FrameRate
	// Mean is the frame-size mean μ in cells/frame.
	Mean = 500.0
	// Variance is the frame-size variance σ² in (cells/frame)².
	Variance = 5000.0
	// MZV is the FBNDP superposition order M for Z^a and V^v.
	MZV = 15
	// ML is the FBNDP superposition order M for L.
	ML = 30
	// AlphaZ is the FBNDP fractal exponent of Z^a (Hurst 0.9).
	AlphaZ = 0.8
	// AlphaV is the FBNDP fractal exponent of V^v (Hurst 0.95).
	AlphaV = 0.9
	// AlphaL is the FBNDP fractal exponent of L (Hurst 0.86), chosen so
	// L's ACF tail best fits Z^a's (paper §5.1 item 7).
	AlphaL = 0.72
	// RefA is the DAR(1) lag-1 correlation of the reference V^1 model.
	RefA = 0.8
)

// Composite is the sum of an independent FBNDP component X and DAR(1)
// component Y, the construction of both V^v and Z^a (paper §3.3). Its ACF
// is the variance-weighted mixture
//
//	r(k) = v/(v+1)·r_X(k) + 1/(v+1)·r_Y(k),  v = σ²_X/σ²_Y.
type Composite struct {
	X    *fbndp.Model
	Y    *dar.Process
	name string
}

// NewComposite wires the two components together.
func NewComposite(x *fbndp.Model, y *dar.Process, name string) *Composite {
	return &Composite{X: x, Y: y, name: name}
}

// Name implements traffic.Model.
func (c *Composite) Name() string { return c.name }

// DrawVersion implements traffic.DrawVersioned, joining the components'.
func (c *Composite) DrawVersion() string { return c.X.DrawVersion() + "+" + c.Y.DrawVersion() }

// Mean implements traffic.Model.
func (c *Composite) Mean() float64 { return c.X.Mean() + c.Y.Mean() }

// Variance implements traffic.Model.
func (c *Composite) Variance() float64 { return c.X.Variance() + c.Y.Variance() }

// V returns the long-term correlation weight v = σ²_X/σ²_Y.
func (c *Composite) V() float64 { return c.X.Variance() / c.Y.Variance() }

// ACF implements traffic.Model (paper Eq. 5).
func (c *Composite) ACF(k int) float64 {
	return mixACF(c.X.Variance(), c.Y.Variance(), c.X.ACF(k), c.Y.ACF(k))
}

// ACFRange implements traffic.ACFRanger: dst[i] = ACF(from+i), bit for
// bit, for from ≥ 0. It reads the component variances once and mixes
// the components' own ranges. Past the DAR(1) fixed point r_Y repeats
// one subnormal value, so vy·r_Y is computed once per run of equal
// lags rather than per lag.
func (c *Composite) ACFRange(dst []float64, from int) {
	vx, vy := c.X.Variance(), c.Y.Variance()
	ry := make([]float64, len(dst))
	c.X.ACFRange(dst, from)
	c.Y.ACFRange(ry, from)
	var prev uint64
	var wy float64
	for i, r := range ry {
		if bits := math.Float64bits(r); i == 0 || bits != prev {
			prev, wy = bits, float64(vy*r)
		}
		dst[i] = mixWeighted(vx, vy, dst[i], wy)
	}
}

// ACFNonIncreasing implements traffic.NonIncreasingACF when both
// components declare it: a mixture with non-negative weights of two
// non-increasing ACFs does not increase.
func (c *Composite) ACFNonIncreasing() bool {
	return c.X.ACFNonIncreasing() && c.Y.ACFNonIncreasing()
}

// mixACF is the variance-weighted mixture (vx·rx + vy·ry)/(vx + vy).
// The conversion rounds vy·ry on its own, as ACFRange does, so no
// platform fuses it into the sum.
func mixACF(vx, vy, rx, ry float64) float64 {
	return mixWeighted(vx, vy, rx, float64(vy*ry))
}

// mixWeighted is mixACF given the product wy = vy·ry.
func mixWeighted(vx, vy, rx, wy float64) float64 {
	return (vx*rx + wy) / (vx + vy)
}

// NewGenerator implements traffic.Model: the sum of independent X and Y
// sample paths, with child seeds derived deterministically from seed.
func (c *Composite) NewGenerator(seed int64) traffic.Generator {
	r := randx.NewRand(seed)
	gx := c.X.NewGenerator(r.Int63())
	gy := c.Y.NewGenerator(r.Int63())
	return &compositeGen{
		gx: gx, gy: gy,
		bx: traffic.Blocks(gx), by: traffic.Blocks(gy),
	}
}

// compositeGen sums independent component sample paths. The components
// hold separate RNG streams, so filling X for a whole chunk and then Y
// yields exactly the per-frame interleaved path of the scalar protocol.
type compositeGen struct {
	gx, gy traffic.Generator
	bx, by traffic.BlockGenerator
	tmp    []float64 // scratch for the Y component during Fill
}

// NextFrame implements traffic.Generator.
func (g *compositeGen) NextFrame() float64 {
	return g.gx.NextFrame() + g.gy.NextFrame()
}

// Fill implements traffic.BlockGenerator (bit-identical to NextFrame).
func (g *compositeGen) Fill(dst []float64) {
	if cap(g.tmp) < len(dst) {
		g.tmp = make([]float64, len(dst))
	}
	tmp := g.tmp[:len(dst)]
	g.bx.Fill(dst)
	g.by.Fill(tmp)
	for i, v := range tmp {
		dst[i] += v
	}
}

// componentSplit computes the FBNDP component moments implied by weight v:
// σ²_X = σ²·v/(1+v), and μ_X from the FBNDP index-of-dispersion identity
// σ²_X/μ_X = 1 + (Ts/T0)^α = σ²/μ (all our models share dispersion 10).
func componentSplit(v float64) (muX, varX, muY, varY float64) {
	varX = Variance * v / (1 + v)
	varY = Variance - varX
	dispersion := Variance / Mean // = 1 + (Ts/T0)^α by construction
	muX = varX / dispersion
	muY = Mean - muX
	return
}

// NewZ constructs the asymptotic-LRD model Z^a for a given DAR(1) lag-1
// correlation a ∈ (0, 1). Z^a has v = 1: the FBNDP and DAR(1) components
// contribute equally to mean and variance (paper §3.3).
func NewZ(a float64) (*Composite, error) {
	if a <= 0 || a >= 1 {
		return nil, fmt.Errorf("models: Z parameter a = %v outside (0, 1)", a)
	}
	muX, varX, muY, varY := componentSplit(1)
	t0, err := fbndp.SolveT0(muX, varX, AlphaZ, Ts)
	if err != nil {
		return nil, fmt.Errorf("models: Z FBNDP onset time: %w", err)
	}
	x, err := fbndp.NewModel(fbndp.Params{
		Alpha: AlphaZ, Lambda: muX / Ts, T0: t0, M: MZV, Ts: Ts,
	})
	if err != nil {
		return nil, fmt.Errorf("models: Z FBNDP component: %w", err)
	}
	y, err := dar.NewDAR1(a, dar.GaussianMarginal(muY, varY))
	if err != nil {
		return nil, fmt.Errorf("models: Z DAR component: %w", err)
	}
	return NewComposite(x, y, fmt.Sprintf("Z^%g", a)), nil
}

// NewV constructs the model V^v for a given long-term correlation weight
// v > 0. The FBNDP onset time is fixed at the v = 1 derivation (paper
// Table 1: T0 = 3.48 ms for all three v), and the DAR(1) parameter a is
// solved so the lag-1 correlation of V^v equals that of the reference V^1
// with a = 0.8 (paper §3.3: "for different values of v, the first-lag
// correlation is identical").
func NewV(v float64) (*Composite, error) {
	if !(v > 0) || math.IsInf(v, 1) {
		return nil, fmt.Errorf("models: V parameter v = %v must be positive and finite", v)
	}
	muX, _, muY, varY := componentSplit(v)
	// T0 from the v = 1 split, held fixed across v. Because every split
	// shares the dispersion σ²/μ, σ²_X = dispersion·μ_X holds automatically
	// for the other v as well.
	muX1, varX1, _, _ := componentSplit(1)
	t0, err := fbndp.SolveT0(muX1, varX1, AlphaV, Ts)
	if err != nil {
		return nil, fmt.Errorf("models: V FBNDP onset time: %w", err)
	}
	x, err := fbndp.NewModel(fbndp.Params{
		Alpha: AlphaV, Lambda: muX / Ts, T0: t0, M: MZV, Ts: Ts,
	})
	if err != nil {
		return nil, fmt.Errorf("models: V FBNDP component: %w", err)
	}
	a, err := SolveVA(v, x.P)
	if err != nil {
		return nil, err
	}
	y, err := dar.NewDAR1(a, dar.GaussianMarginal(muY, varY))
	if err != nil {
		return nil, fmt.Errorf("models: V DAR component: %w", err)
	}
	return NewComposite(x, y, fmt.Sprintf("V^%g", v)), nil
}

// SolveVA returns the DAR(1) parameter a of V^v that pins the composite
// lag-1 correlation to the reference value
// r_ref(1) = ½·r_X(1) + ½·RefA (the V^1 model):
//
//	a = [ r_ref(1) − w·r_X(1) ] / (1−w),  w = v/(1+v).
func SolveVA(v float64, x fbndp.Params) (float64, error) {
	rx1 := x.ACF(1)
	ref := 0.5*rx1 + 0.5*RefA
	w := v / (1 + v)
	a := (ref - w*rx1) / (1 - w)
	if a <= 0 || a >= 1 {
		return 0, fmt.Errorf("models: derived V DAR parameter a = %v infeasible for v = %v", a, v)
	}
	return a, nil
}

// NewL constructs the exact-LRD model L: a pure FBNDP with the full
// marginal (μ = 500, σ² = 5000), M = 30 and α = AlphaL (paper Table 1).
func NewL() (*fbndp.Model, error) {
	return NewLAlpha(AlphaL)
}

// NewLAlpha constructs an L-type model with an explicit fractal exponent,
// used by the tail-fitting search.
func NewLAlpha(alpha float64) (*fbndp.Model, error) {
	t0, err := fbndp.SolveT0(Mean, Variance, alpha, Ts)
	if err != nil {
		return nil, fmt.Errorf("models: L onset time: %w", err)
	}
	m, err := fbndp.NewModel(fbndp.Params{
		Alpha: alpha, Lambda: Mean / Ts, T0: t0, M: ML, Ts: Ts,
	})
	if err != nil {
		return nil, fmt.Errorf("models: L: %w", err)
	}
	m.SetName("L")
	return m, nil
}

// FitLAlpha searches for the fractal exponent α whose L-type model best
// fits the ACF tail of target over lags [lagLo, lagHi], minimising the mean
// squared log-ACF distance (the paper's §5.1 item 7 procedure, which
// selected α = 0.72 against Z^a). The search is a fine grid over (0.4,
// 0.98); the objective is smooth, so grid resolution 1e-3 suffices.
func FitLAlpha(target traffic.Model, lagLo, lagHi int) (float64, error) {
	if lagLo < 1 || lagHi <= lagLo {
		return 0, fmt.Errorf("models: invalid lag window [%d, %d]", lagLo, lagHi)
	}
	// Log-spaced lags keep the objective from being dominated by the
	// densely packed high lags.
	var lags []int
	for k := float64(lagLo); k <= float64(lagHi); k *= 1.15 {
		lags = append(lags, int(k))
	}
	best, bestObj := 0.0, math.Inf(1)
	for alpha := 0.40; alpha <= 0.98; alpha += 0.001 {
		m, err := NewLAlpha(alpha)
		if err != nil {
			continue
		}
		var obj float64
		ok := true
		for _, k := range lags {
			rt, rl := target.ACF(k), m.ACF(k)
			if rt <= 0 || rl <= 0 {
				ok = false
				break
			}
			d := math.Log(rl) - math.Log(rt)
			obj += d * d
		}
		if !ok {
			continue
		}
		if obj < bestObj {
			best, bestObj = alpha, obj
		}
	}
	if math.IsInf(bestObj, 1) {
		return 0, fmt.Errorf("models: tail fit failed over [%d, %d]", lagLo, lagHi)
	}
	return best, nil
}

// FitS constructs the paper's model S: a DAR(p) whose first p
// autocorrelations exactly match those of z, sharing the same Gaussian
// marginal (paper §3.1, Table 1).
func FitS(z traffic.Model, p int) (*dar.Process, error) {
	if p < 1 || p > dar.MaxOrder {
		return nil, fmt.Errorf("models: DAR order %d must be in [1, %d]", p, dar.MaxOrder)
	}
	target := make([]float64, p)
	for k := 1; k <= p; k++ {
		target[k-1] = z.ACF(k)
	}
	s, err := dar.Fit(target, dar.GaussianMarginal(z.Mean(), z.Variance()))
	if err != nil {
		return nil, fmt.Errorf("models: DAR(%d) fit to %s: %w", p, z.Name(), err)
	}
	s.SetName(fmt.Sprintf("DAR(%d)[%s]", p, z.Name()))
	return s, nil
}

// Paper-standard parameter sweeps.
var (
	// VValues are the three long-term correlation weights of Fig 3-5, 8.
	VValues = []float64{0.67, 1, 1.5}
	// ZValues are the four short-term correlation levels of Fig 3-9.
	ZValues = []float64{0.7, 0.9, 0.975, 0.99}
	// SOrders are the DAR orders fit in Table 1 and Figs 6, 7, 9.
	SOrders = []int{1, 2, 3}
)
