package core

import (
	"math"
	"reflect"
	"sync"

	"repro/internal/diag"
	"repro/internal/solver"
	"repro/internal/traffic"
)

// Numerical-health probes over the asymptotic estimates: a rate function
// gone NaN (broken ACF) or a probability underflowing to exact zero
// (N·I(c,b) past ~745) is counted rather than silently plotted.
var (
	probeRate = diag.NewProbe("core.RateFunction")
	probeProb = diag.NewProbe("core.OverflowProb")
)

// momentsCache maps comparable models to their shared traffic.Moments
// view, so every CTS scan, asymptotic estimate and admission-control
// search against the same model reuses one memoised ACF prefix-sum table
// instead of re-walking the ACF from lag 1.
var momentsCache sync.Map // traffic.Model → *traffic.Moments

// Moments returns the shared cached second-order view of m. Calls with
// the same (comparable) model value return the same *traffic.Moments;
// models of non-comparable dynamic type get a private, unshared view.
// Passing a *traffic.Moments returns it unchanged.
func Moments(m traffic.Model) *traffic.Moments {
	if mo, ok := m.(*traffic.Moments); ok {
		return mo
	}
	if m == nil || !reflect.TypeOf(m).Comparable() {
		return traffic.NewMoments(m)
	}
	if v, ok := momentsCache.Load(m); ok {
		return v.(*traffic.Moments)
	}
	v, _ := momentsCache.LoadOrStore(m, traffic.NewMoments(m))
	return v.(*traffic.Moments)
}

// CTSMoments computes the critical time scale against a cached moment
// view: each objective evaluation is O(1) after the one-time lag
// extension, so sweeping many operating points against one model costs
// one ACF walk total. The scan reads V(m) from a traffic.Prefix snapshot
// and locks the view only to take a longer one. The scan and stopping
// rule are those of CTS (growFactor 4, slack 64, stopFactor 3, and the
// floor for a model that declares a non-increasing ACF), and the results
// are bit-identical to the incremental VarianceOfSum evaluation.
func CTSMoments(mo *traffic.Moments, op Operating, maxM int) (CTSResult, error) {
	if err := op.Validate(mo); err != nil {
		return CTSResult{}, err
	}
	if maxM <= 0 {
		maxM = DefaultMaxM
	}
	drift := op.C - mo.Mean()
	var pre traffic.Prefix
	obj := func(m int) float64 {
		if m > pre.MaxM() {
			pre = mo.Prefix(m - 1)
		}
		num := op.B + float64(m)*drift
		return num * num / (2 * pre.VarSum(m))
	}
	var floor func(int) float64
	if mo.ACFNonIncreasing() {
		floor = func(m int) float64 { return ctsFloor(drift, m, pre.VarSum(m)) }
	}
	best, ok := solver.IntArgminSlack(obj, floor, maxM, 4, 64, 3)
	probeRate.Check(best.Value)
	return CTSResult{M: best.Arg, Rate: best.Value, Converged: ok}, nil
}

// floorMargin is the relative headroom ctsFloor leaves for rounding in
// the computed V(m). For L and for the FBNDP part of Z^a, VarSum(m) stays
// within 1e-11 relative of the closed form σ²[(1−f)m + f·m^{α+1}] for
// every m ≤ 2²⁰ (models.TestVarSumRoundingHeadroom; the worst errors
// measured are 1.3e-12 through 2²⁰ and 3.1e-12 through DefaultMaxM), so
// a margin of 1e-9 covers the error of both the floor and every later
// objective value by two orders of magnitude.
const floorMargin = 1e-9

// ctsFloor is the proven lower bound on the CTS objective's tail, given
// the drift d = c − μ > 0 and v = V(m). When the ACF does not increase,
// V(m)/m² does not increase either (DESIGN.md §4), so for every m′ > m
//
//	[b + m′d]²/2V(m′) ≥ (b/m′ + d)²·m²/2V(m) ≥ d²m²/2V(m),
//
// using b ≥ 0. The bound is returned shrunk by floorMargin, so a scan
// that stops on it returns what the unbounded scan would, bit for bit.
func ctsFloor(drift float64, m int, v float64) float64 {
	x := float64(m) * drift
	return x * x / (2 * v) * (1 - floorMargin)
}

// RateFunctionMoments returns I(c,b) alone; see CTSMoments.
func RateFunctionMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	return res.Rate, err
}

// BahadurRaoMoments is BahadurRao against a cached moment view.
func BahadurRaoMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	if err != nil {
		return 0, err
	}
	return brFromTotalRate(float64(op.N) * res.Rate), nil
}

// LargeNMoments is LargeN against a cached moment view.
func LargeNMoments(mo *traffic.Moments, op Operating, maxM int) (float64, error) {
	res, err := CTSMoments(mo, op, maxM)
	if err != nil {
		return 0, err
	}
	p := math.Exp(-float64(op.N) * res.Rate)
	probeProb.CheckPositive(p)
	return p, nil
}
