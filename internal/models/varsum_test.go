package models

import (
	"math"
	"testing"

	"repro/internal/dar"
	"repro/internal/fbndp"
	"repro/internal/traffic"
)

// varSumLags are the aggregation levels the closed forms are checked at:
// one frame, a GOP-scale block, a buffer-scale block and the 10⁵ frames
// the CTS scans reach.
var varSumLags = []int{1, 10, 1000, 100000}

// checkVarSum holds traffic.Moments.VarSum(m) of model to want(m) at
// relative tolerance 1e-9.
func checkVarSum(t *testing.T, name string, model traffic.Model, want func(m float64) float64) {
	t.Helper()
	mo := traffic.NewMoments(model)
	for _, m := range varSumLags {
		got, w := mo.VarSum(m), want(float64(m))
		if math.Abs(got-w) > 1e-9*math.Abs(w) {
			t.Errorf("%s: V(%d) = %.17g, closed form %.17g (rel err %.3g)",
				name, m, got, w, math.Abs(got-w)/math.Abs(w))
		}
	}
}

// TestFBNDPVarSumClosedForm checks the FBNDP variance-time function
// against its closed form. The frame-count ACF r(k) = f·½∇²(k^{α+1})
// telescopes in V(m) = σ²[m + 2Σ_{i<m}(m−i)r(i)] to
//
//	V(m) = σ²[(1−f)·m + f·m^{α+1}],  f = Ts^α/(Ts^α+T0^α),
//
// here for the FBNDP components of Z^0.975 and V^1.5 and for L.
func TestFBNDPVarSumClosedForm(t *testing.T) {
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewV(1.5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    *fbndp.Model
	}{
		{"Z^0.975 FBNDP", z.X}, {"V^1.5 FBNDP", v.X}, {"L", l},
	} {
		p := tc.x.P
		tsa, t0a := math.Pow(p.Ts, p.Alpha), math.Pow(p.T0, p.Alpha)
		f := tsa / (tsa + t0a)
		s2 := tc.x.Variance()
		checkVarSum(t, tc.name, tc.x, func(m float64) float64 {
			return s2 * ((1-f)*m + f*math.Pow(m, p.Alpha+1))
		})
	}
}

// TestDAR1VarSumClosedForm checks the DAR(1) variance-time function
// against its closed form. With r(k) = ρ^k the geometric sums give
//
//	V(m) = σ²[m(1+ρ)/(1−ρ) − 2ρ(1−ρ^m)/(1−ρ)²].
func TestDAR1VarSumClosedForm(t *testing.T) {
	for _, rho := range []float64{0.7, 0.975} {
		d, err := dar.NewDAR1(rho, dar.GaussianMarginal(Mean, Variance))
		if err != nil {
			t.Fatal(err)
		}
		s2 := d.Variance()
		checkVarSum(t, d.Name(), d, func(m float64) float64 {
			return s2 * (m*(1+rho)/(1-rho) - 2*rho*(1-math.Pow(rho, m))/((1-rho)*(1-rho)))
		})
	}
}

// TestVarSumRoundingHeadroom checks VarSum against the FBNDP closed form
// σ²[(1−f)m + f·m^{α+1}] at every m ≤ 2²⁰, for L and for Z^a's FBNDP
// part, at relative tolerance 1e-11. That bound on V(m)'s rounding is
// what lets the CTS scan's floor (core.CTS) run with a margin of 1e-9:
// a floor and a later objective value can each be off by no more than
// the V(m) they read.
func TestVarSumRoundingHeadroom(t *testing.T) {
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	const maxM = 1 << 20
	for _, tc := range []struct {
		name string
		x    *fbndp.Model
	}{
		{"Z^0.975 FBNDP", z.X}, {"L", l},
	} {
		p := tc.x.P
		tsa, t0a := math.Pow(p.Ts, p.Alpha), math.Pow(p.T0, p.Alpha)
		f := tsa / (tsa + t0a)
		s2 := tc.x.Variance()
		pre := traffic.NewMoments(tc.x).Prefix(maxM - 1)
		var worst float64
		worstM := 0
		for m := 1; m <= maxM; m++ {
			fm := float64(m)
			want := s2 * ((1-f)*fm + f*math.Pow(fm, p.Alpha+1))
			if e := math.Abs(pre.VarSum(m)-want) / want; e > worst {
				worst, worstM = e, m
			}
		}
		t.Logf("%s: worst relative error %.3g at m = %d", tc.name, worst, worstM)
		if worst > 1e-11 {
			t.Errorf("%s: V(%d) off the closed form by %.3g relative, want ≤ 1e-11", tc.name, worstM, worst)
		}
	}
}
