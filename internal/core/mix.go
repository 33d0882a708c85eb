package core

import (
	"fmt"
	"math"

	"repro/internal/solver"
	"repro/internal/traffic"
)

// Component is one traffic class in a heterogeneous multiplex: Count
// statistically identical sources of the given model.
type Component struct {
	Model traffic.Model
	Count int
}

// Mix is a heterogeneous superposition. The aggregate of independent
// Gaussian classes is Gaussian with summed means and summed m-frame sum
// variances, so the whole large-deviations machinery carries over with
// totals in place of per-source quantities:
//
//	I(C,B) = inf_{m≥1} [B + m(C−μ_tot)]² / (2·Σ_j n_j·V_j(m)).
//
// For a homogeneous mix this reduces exactly to N·I(c,b) of the
// per-source formulation.
type Mix []Component

// Validate checks the mix.
func (mix Mix) Validate() error {
	if len(mix) == 0 {
		return fmt.Errorf("core: empty mix")
	}
	for i, c := range mix {
		if c.Model == nil {
			return fmt.Errorf("core: mix component %d has nil model", i)
		}
		if c.Count < 0 {
			return fmt.Errorf("core: mix component %d has negative count", i)
		}
	}
	if mix.TotalCount() == 0 {
		return fmt.Errorf("core: mix has no sources")
	}
	return nil
}

// TotalCount returns the number of sources across classes.
func (mix Mix) TotalCount() int {
	var n int
	for _, c := range mix {
		n += c.Count
	}
	return n
}

// MeanTotal returns the aggregate mean rate in cells/frame.
func (mix Mix) MeanTotal() float64 {
	var mu float64
	for _, c := range mix {
		mu += float64(c.Count) * c.Model.Mean()
	}
	return mu
}

// acfNonIncreasing reports whether every class declares a non-increasing
// ACF (traffic.NonIncreasingACF).
func (mix Mix) acfNonIncreasing() bool {
	for _, c := range mix {
		if !traffic.ACFNonIncreasing(c.Model) {
			return false
		}
	}
	return true
}

// MixCTS computes the critical time scale and rate function of a
// heterogeneous multiplex at total capacity totalC (cells/frame) and total
// buffer totalB (cells). The scan and its stopping rules are those of CTS.
func MixCTS(mix Mix, totalC, totalB float64, maxM int) (CTSResult, error) {
	if err := mix.Validate(); err != nil {
		return CTSResult{}, err
	}
	if totalB < 0 {
		return CTSResult{}, fmt.Errorf("core: buffer %v must be non-negative", totalB)
	}
	mu := mix.MeanTotal()
	if totalC <= mu {
		return CTSResult{}, fmt.Errorf("core: capacity %v must exceed aggregate mean %v", totalC, mu)
	}
	if maxM <= 0 {
		maxM = DefaultMaxM
	}
	// Per-class cached moment views: components repeated across MixCTS
	// calls (CAC searches sweep counts with fixed models) share lag tables.
	moms := make([]*traffic.Moments, len(mix))
	for i, c := range mix {
		moms[i] = Moments(c.Model)
	}
	drift := totalC - mu
	varSum := func(m int) float64 {
		var v float64
		for i, c := range mix {
			v += float64(c.Count) * moms[i].VarSum(m)
		}
		return v
	}
	obj := func(m int) float64 {
		num := totalB + float64(m)*drift
		return num * num / (2 * varSum(m))
	}
	// Σ n_j·V_j(m)/m² does not increase when no V_j(m)/m² does, so the
	// mix takes CTS's floor when every class declares a non-increasing ACF.
	var floor func(int) float64
	if mix.acfNonIncreasing() {
		floor = func(m int) float64 { return ctsFloor(drift, m, varSum(m)) }
	}
	best, ok := solver.IntArgminSlack(obj, floor, maxM, 4, 64, 3)
	return CTSResult{M: best.Arg, Rate: best.Value, Converged: ok}, nil
}

// MixBahadurRao returns the Bahadur-Rao overflow estimate for a
// heterogeneous multiplex: exp(−I − ½log(4πI)) with the mix rate function
// (which already contains the population scaling).
func MixBahadurRao(mix Mix, totalC, totalB float64, maxM int) (float64, error) {
	res, err := MixCTS(mix, totalC, totalB, maxM)
	if err != nil {
		return 0, err
	}
	return brFromTotalRate(res.Rate), nil
}

// MixLargeN returns exp(−I) for the mix.
func MixLargeN(mix Mix, totalC, totalB float64, maxM int) (float64, error) {
	res, err := MixCTS(mix, totalC, totalB, maxM)
	if err != nil {
		return 0, err
	}
	if res.Rate <= 0 {
		return 1, nil
	}
	return math.Exp(-res.Rate), nil
}
