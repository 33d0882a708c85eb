// Package solver provides the small numerical kernels the rest of the
// repository builds on: dense linear solves, scalar root finding, scalar
// minimisation, and integer argmin scans.
//
// Everything here is deliberately simple and dependency-free. The systems
// solved in this project are tiny (DAR(p) Yule-Walker fits with p ≤ 16,
// one-dimensional parameter inversions), so clarity and robustness are
// preferred over asymptotic performance.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/diag"
)

// Numerical-health probes: every kernel screens the values it produces or
// scans so a NaN/Inf escaping a model's ACF or an underflowing objective
// is counted (diag_health_total in telemetry) instead of silently steering
// an optimizer. The all-finite fast path costs only comparisons.
var (
	probeSolve  = diag.NewProbe("solver.Solve")
	probeBisect = diag.NewProbe("solver.Bisect")
	probeArgmin = diag.NewProbe("solver.IntArgmin")
)

// ErrSingular is returned by Solve when the coefficient matrix is singular
// to working precision.
var ErrSingular = errors.New("solver: singular matrix")

// ErrNoBracket is returned by Bisect when the supplied interval does not
// bracket a sign change.
var ErrNoBracket = errors.New("solver: interval does not bracket a root")

// ErrMaxIter is returned when an iterative method fails to converge within
// its iteration budget.
var ErrMaxIter = errors.New("solver: maximum iterations exceeded")

// Solve solves the dense linear system a·x = b by Gaussian elimination with
// partial pivoting. The inputs are not modified. The matrix a is given in
// row-major order as a slice of rows; every row must have length len(b).
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	if len(a) != n {
		return nil, fmt.Errorf("solver: matrix has %d rows, want %d", len(a), n)
	}
	// Work on a copy so callers keep their inputs.
	m := make([][]float64, n)
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("solver: row %d has %d columns, want %d", i, len(row), n)
		}
		m[i] = append([]float64(nil), row...)
		m[i] = append(m[i], b[i])
	}

	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for c := i + 1; c < n; c++ {
			sum -= m[i][c] * x[c]
		}
		x[i] = sum / m[i][i]
	}
	for i, v := range x {
		if !probeSolve.Check(v) {
			return nil, fmt.Errorf("solver: non-finite solution component %d", i)
		}
	}
	return x, nil
}

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi) must
// have opposite signs (a zero at either endpoint is accepted). The result is
// accurate to within tol in the argument.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	probeBisect.Check(flo)
	probeBisect.Check(fhi)
	switch {
	case flo == 0:
		return lo, nil
	case fhi == 0:
		return hi, nil
	case flo*fhi > 0:
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		if hi-lo <= tol {
			return mid, nil
		}
		fm := f(mid)
		probeBisect.Check(fm)
		if fm == 0 {
			return mid, nil
		}
		if flo*fm < 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return lo + (hi-lo)/2, ErrMaxIter
}

// GoldenMin minimises a unimodal function on [lo, hi] by golden-section
// search, returning the argmin to within tol.
func GoldenMin(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	if lo > hi {
		lo, hi = hi, lo
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return a + (b-a)/2
}

// ArgminResult reports the outcome of an integer argmin scan.
type ArgminResult struct {
	Arg   int     // minimising integer argument
	Value float64 // objective value at Arg
}

// IntArgmin scans f over m = 1, 2, ... and returns the argmin. The objective
// need not be unimodal; the scan stops once both of the following hold:
// the current m is at least growFactor times the best argmin seen so far,
// and the current value exceeds stopFactor times the best value. maxM caps
// the scan; if the stopping rule has not fired by maxM the best value seen
// is returned along with ok=false.
//
// The rule is a heuristic, not a proof: it assumes an objective that has
// risen stopFactor-fold far past the incumbent does not come back down.
// An objective with a provable lower bound on its tail should pass that
// bound to IntArgminSlack instead.
func IntArgmin(f func(int) float64, maxM int, growFactor, stopFactor float64) (ArgminResult, bool) {
	return IntArgminSlack(f, nil, maxM, growFactor, 0, stopFactor)
}

// IntArgminSlack is IntArgmin with an additive slack on the argument part
// of the stopping rule and an optional proven floor. The scan stops once
// m ≥ growFactor·best.Arg + slack and either f(m) ≥ stopFactor·best.Value
// or floor(m) > best.Value. The slack keeps the rule from firing on the
// shallow early ripples of objectives whose argmin is small but whose
// surface is locally rough (e.g. CTS objectives of near-periodic ACFs,
// where an early incumbent at m = 1–3 would otherwise end the scan before
// the true valley).
//
// floor, if not nil, must bound the tail from below: floor(m) ≤ f(m′) for
// every m′ > m. Once it exceeds the incumbent no later m can improve on
// it, so stopping there returns exactly what a scan without the floor
// would have returned, through maxM or its own stop, with ok = true. The
// floor is read only at an m where f has just been evaluated and did not
// improve on the incumbent.
func IntArgminSlack(f, floor func(int) float64, maxM int, growFactor, slack, stopFactor float64) (ArgminResult, bool) {
	if maxM < 1 {
		return ArgminResult{}, false
	}
	best := ArgminResult{Arg: 1, Value: f(1)}
	probeArgmin.Check(best.Value)
	for m := 2; m <= maxM; m++ {
		v := f(m)
		probeArgmin.Check(v)
		if v < best.Value {
			best = ArgminResult{Arg: m, Value: v}
			continue
		}
		if float64(m) >= growFactor*float64(best.Arg)+slack &&
			(v >= stopFactor*best.Value || floor != nil && floor(m) > best.Value) {
			return best, true
		}
	}
	return best, false
}
