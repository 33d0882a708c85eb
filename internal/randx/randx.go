// Package randx provides the non-uniform random variate generators the
// traffic substrates share: Poisson (Knuth product method and Hörmann's
// PTRS transformed rejection) and Gamma (Marsaglia-Tsang), plus the
// negative binomial built from their mixture. math/rand supplies only
// uniform, normal and exponential variates; everything else is here, along
// with Stream, a concrete copy of math/rand's uniform source for hot loops.
package randx

import (
	"math"
	"math/rand"
)

// NewRand is the single RNG construction point for every stochastic path
// in the repository, together with NewStream, which it wraps: callers
// derive a child seed with package seed's splitmix64 helpers (seed.Derive /
// seed.Children / seed.DeriveString) and hand it here. Centralising
// construction keeps the seeding discipline — hash-derived, index-addressed
// seeds feeding math/rand's seeding — uniform across all traffic
// substrates, so no package can quietly fall back to additive or
// global-state seeding, and every generator runs on one source
// implementation, Stream.
func NewRand(seed int64) *rand.Rand {
	return NewStream(seed).Rand()
}

// Poisson draws from a Poisson distribution with the given mean. Means up
// to 30 use Knuth's product method; larger means use PTRS, which is exact
// and O(1) expected time. Non-positive means yield 0.
func Poisson(r *rand.Rand, mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		return poissonKnuth(r, mean)
	default:
		return poissonPTRS(r, mean)
	}
}

func poissonKnuth(r *rand.Rand, mean float64) int64 {
	l := math.Exp(-mean)
	var k int64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements W. Hörmann's PTRS algorithm ("The transformed
// rejection method for generating Poisson random variables", 1993).
func poissonPTRS(r *rand.Rand, mean float64) int64 {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int64(k)
		}
	}
}

// Gamma draws from a Gamma(shape, scale) distribution using the
// Marsaglia-Tsang squeeze method (2000), with the standard boost for
// shape < 1. The mean is shape·scale and the variance shape·scale².
func Gamma(r *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1)·U^{1/a}.
		u := 1 - r.Float64() // (0, 1]
		return Gamma(r, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := 1 - r.Float64() // (0, 1], safe for Log
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// NegativeBinomial draws from the negative binomial distribution with the
// given mean and variance (variance > mean required; returns 0 otherwise).
// It uses the Gamma-Poisson mixture: N | Λ ~ Poisson(Λ) with
// Λ ~ Gamma(r, p/(1−p)) gives NB(r, p). This is the over-dispersed
// discrete frame-size marginal of Heyman-Lakshman (paper §6.1).
func NegativeBinomial(r *rand.Rand, mean, variance float64) int64 {
	if mean <= 0 || variance <= mean {
		return 0
	}
	// Match moments with Λ ~ Gamma(shape k, scale θ):
	//   E[N] = E[Λ] = kθ = mean,
	//   Var[N] = E[Λ] + Var[Λ] = mean + kθ² = variance,
	// so θ = (variance−mean)/mean and k = mean/θ = mean²/(variance−mean).
	scale := (variance - mean) / mean
	shape := mean * mean / (variance - mean)
	lambda := Gamma(r, shape, scale)
	return Poisson(r, lambda)
}
