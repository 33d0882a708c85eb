package fbndp

import (
	"math"
	"sync"

	"repro/internal/randx"
)

// zigLayers is the number of equal-area layers of a duration ziggurat. A
// power of two, so the low bits of one Uint64 pick the layer.
const zigLayers = 256

// ziggurat samples fresh ON/OFF durations by Marsaglia and Tsang's
// ziggurat method ("The ziggurat method for generating random
// variables", JSS 2000), built over the duration density itself in
// units of the crossover A:
//
//	f(x) = γ·e^{−γx}           0 ≤ x ≤ 1
//	f(x) = γ·e^{−γ}·x^{−γ−1}   x > 1
//
// f is monotone decreasing, so zigLayers horizontal layers of equal area
// v cover the region under it. Layer i (i ≥ 1) spans [0, x[i]] ×
// [f(x[i]), f(x[i+1])], with x[1] = r > x[2] > … > x[zigLayers] = 0.
// The base layer 0 is the rectangle [0, r] × [0, f(r)] plus the tail
// beyond r, drawn as one rectangle of width x[0] = v/f(r). A point
// uniform in a layer with abscissa below x[i+1] lies under f; one above
// it lies in the wedge between the layer's corner and the curve, or, in
// the base layer, stands for the tail.
//
// A draw maps one Uint64 through layer: its low 8 bits pick the layer
// and its top 53 bits the abscissa. An abscissa below the layer's inner
// edge is the duration, so most draws take one Uint64; only the rest, in
// redraw, draw again. The low bits of the additive lagged-Fibonacci
// stream obey their own recurrence; DESIGN (FBNDP, "The layer's bits")
// says what that does and does not touch.
//
// A wedge point (x, y) is kept if y < f(x), and squeeze settles that
// without exp or pow for almost every point. f is convex on [0, 1] and on
// [1, ∞), so on a layer lying wholly on one side of x = 1 it lies under
// the chord through the wedge's two corners and above the tangents at
// both. At x = 1 its slope steepens from −γ·f(1) to −(γ+1)·f(1), a
// concave kink, so the one layer whose wedge straddles 1 gets no squeeze.
// Each bound is taken with a relative margin of squeezeTol, far wider
// than the few ulps by which the tables, the bounds' arithmetic and
// density itself miss f; a point the squeeze settles therefore gets the
// answer y < density(x) would give, and the durations are those the bare
// test draws, bit for bit. Points inside the margins fall through to
// density. About 0.3% of draws still call exp or pow: the wedge points
// left to density, and the base layer's tail.
//
// The tables depend on γ = 2−α alone. For every α in (0, 1) the closing r
// exceeds 1, so the tail beyond r is the pure Pareto part of f.
type ziggurat struct {
	gamma float64
	c     float64 // γ·e^{−γ}, the Pareto tail's coefficient
	v     float64 // area of every layer
	x     [zigLayers + 1]float64
	f     [zigLayers + 1]float64 // f(x[i]); f[0] is unused
	d     [zigLayers + 1]float64 // f′(x[i]), from the left at x = 1; d[0] is unused
	s     [zigLayers]float64     // slope of layer i's chord; s[0] is unused
	kink  uint64                 // the layer whose wedge straddles x = 1
}

// squeezeTol is the relative margin of the squeeze's bounds.
const squeezeTol = 1e-9

// layer maps one Uint64 to a layer i and an abscissa x uniform on
// [0, x[i]).
func (z *ziggurat) layer(u uint64) (i uint64, x float64) {
	i = u % zigLayers
	return i, float64(u>>11) * 0x1p-53 * z.x[i]
}

// draw returns one fresh duration in units of A. generator.frame takes
// the same steps in line, since as a call it costs the toggle loop
// ≈ 20%; TestFrameDrawsAsDraw holds the two to the same durations.
func (z *ziggurat) draw(s *randx.Stream) float64 {
	i, x := z.layer(s.Uint64())
	if x < z.x[i+1] {
		return x
	}
	return z.redraw(s, i, x)
}

// redraw finishes a draw whose abscissa x in layer i lies at or beyond
// the layer's inner edge. In the base layer it stands for the tail. In
// any other layer it is kept if a uniform height in the layer falls
// under f; otherwise the draw starts again.
func (z *ziggurat) redraw(s *randx.Stream, i uint64, x float64) float64 {
	for {
		if i == 0 {
			// Beyond r the law is Pareto: P(X > x | X > r) = (r/x)^γ.
			// The uniform lies in (0, 1], so x stays finite.
			return z.x[1] * math.Pow(float64(s.Uint64()>>11+1)*0x1p-53, -1/z.gamma)
		}
		y := z.f[i] + float64(s.Uint64()>>11)*0x1p-53*(z.f[i+1]-z.f[i])
		under, ok := z.squeeze(i, x, y)
		if !ok {
			under = y < z.density(x)
		}
		if under {
			return x
		}
		if i, x = z.layer(s.Uint64()); x < z.x[i+1] {
			return x
		}
	}
}

// squeeze decides y < f(x) for a point (x, y) in the wedge of layer i ≥ 1
// from the chord and the tangents. ok is false when the point lies in
// the kink layer or within the margins, and the caller must ask density.
func (z *ziggurat) squeeze(i uint64, x, y float64) (under, ok bool) {
	if i == z.kink {
		return false, false
	}
	l, r := x-z.x[i+1], x-z.x[i]
	if y > (z.f[i+1]+z.s[i]*l)*(1+squeezeTol) {
		return false, true
	}
	if y < (z.f[i+1]+z.d[i+1]*l)*(1-squeezeTol) || y < (z.f[i]+z.d[i]*r)*(1-squeezeTol) {
		return true, true
	}
	return false, false
}

// density returns f(x) for x ≥ 0.
func (z *ziggurat) density(x float64) float64 {
	if x <= 1 {
		return z.gamma * math.Exp(-z.gamma*x)
	}
	return z.c * math.Pow(x, -z.gamma-1)
}

// inverse returns the x with f(x) = y, for 0 < y ≤ f(0) = γ.
func (z *ziggurat) inverse(y float64) float64 {
	if y >= z.c {
		return math.Log(z.gamma/y) / z.gamma
	}
	return math.Pow(y/z.c, -1/(z.gamma+1))
}

// stack lays the layers for a base edge r ≥ 1 and returns the closure
// residual (f(x[top]) + v/x[top] − f(0))/f(0): zero when the top layer,
// [0, x[top]] × [f(x[top]), f(0)], has area v like the rest. A
// positive residual means the layers are too thick, so r must grow; a
// stack that overshoots f(0) before the top returns +Inf.
func (z *ziggurat) stack(r float64) float64 {
	z.v = r*z.density(r) + math.Exp(-z.gamma)*math.Pow(r, -z.gamma)
	z.x[0] = z.v / z.density(r)
	z.x[1], z.f[1] = r, z.density(r)
	for i := 1; i < zigLayers-1; i++ {
		y := z.f[i] + z.v/z.x[i]
		if y >= z.gamma {
			return math.Inf(1)
		}
		z.x[i+1], z.f[i+1] = z.inverse(y), y
	}
	top := zigLayers - 1
	z.x[zigLayers], z.f[zigLayers] = 0, z.gamma
	return (z.f[top] + z.v/z.x[top] - z.gamma) / z.gamma
}

// newZiggurat builds the tables for tail index γ by bisection on r to
// the float64 resolution of r, keeping the closer of the two final
// brackets.
func newZiggurat(gamma float64) *ziggurat {
	z := &ziggurat{gamma: gamma, c: gamma * math.Exp(-gamma)}
	lo, hi := 1.0, 1e6
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if z.stack(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if math.Abs(z.stack(lo)) < math.Abs(z.stack(hi)) {
		z.stack(lo)
	}
	// The squeeze's slopes: f′ at every edge, the chord of every layer.
	for i := 1; i <= zigLayers; i++ {
		if z.d[i] = -z.gamma * z.f[i]; z.x[i] > 1 {
			z.d[i] = -(z.gamma + 1) * z.f[i] / z.x[i]
		}
		if i < zigLayers {
			z.s[i] = (z.f[i] - z.f[i+1]) / (z.x[i] - z.x[i+1])
			if z.x[i+1] <= 1 && 1 < z.x[i] {
				z.kink = uint64(i)
			}
		}
	}
	return z
}

// ziggurats caches one table per γ for the process, keyed by γ. Tables
// are built on a model's first NewGenerator, never in NewModel, Validate
// or ACF, so the analytic paths, which construct hundreds of models,
// build none. The cache is process-wide rather than per model because
// the figures build one model per series: Figs 8 and 9 make ten FBNDP
// models over three γ, and a build takes ≈ 1.7 ms. A table is ≈ 8 KiB
// and is never written after it is built.
var ziggurats sync.Map

// zigguratFor returns the cached table for tail index gamma.
func zigguratFor(gamma float64) *ziggurat {
	if z, ok := ziggurats.Load(gamma); ok {
		return z.(*ziggurat)
	}
	z, _ := ziggurats.LoadOrStore(gamma, newZiggurat(gamma))
	return z.(*ziggurat)
}
