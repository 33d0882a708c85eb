package dar_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dar"
	"repro/internal/models"
)

// fixedPointLags is how far TestACFFixedPoint follows each recursion:
// past the 2.1M lags Fig 7's wide grid reaches.
const fixedPointLags = 3_000_000

// plainACF runs the DAR(p) recursion r(k) = Σ_i ρ·a_i·r(k−1−i) through
// lag n with no fixed-point stop, from the base r(0..p) that p solves.
func plainACF(p *dar.Process, n int) []float64 {
	rho, a := p.Rho(), p.SelectionProbs()
	r := make([]float64, n+1)
	for k := 0; k <= len(a); k++ {
		r[k] = p.ACF(k)
	}
	for lag := len(a) + 1; lag <= n; lag++ {
		var v float64
		for i, ai := range a {
			v += rho * ai * r[lag-1-i]
		}
		r[lag] = v
	}
	return r
}

// fixedFrom returns the first lag from which every entry of r equals
// the last one, bit for bit.
func fixedFrom(r []float64) int {
	last := math.Float64bits(r[len(r)-1])
	k := len(r) - 1
	for k > 0 && math.Float64bits(r[k-1]) == last {
		k--
	}
	return k
}

// fixedCase is a DAR process to follow to its fixed point. fixed and
// value, when set, pin the lag it starts at and its value.
type fixedCase struct {
	name  string
	new   func() (*dar.Process, error)
	fixed int
	value float64
}

// TestACFFixedPoint holds the memo that stops at the recursion's fixed
// point to the plain recursion, bit for bit through lag 3·10⁶: ACF at
// every lag, and ACFRange over ranges that straddle the fixed point, on
// fresh processes so the range itself extends the memo. The memo must
// end within p lags of the fixed point.
func TestACFFixedPoint(t *testing.T) {
	g := dar.GaussianMarginal(250, 2500)
	cases := []fixedCase{
		{"DAR(1) a=0.7", func() (*dar.Process, error) { return dar.NewDAR1(0.7, g) }, 2086, 5e-324},
		{"DAR(1) a=0.975", func() (*dar.Process, error) { return dar.NewDAR1(0.975, g) }, 29282, 9.4e-323},
	}
	for _, v := range models.VValues {
		cases = append(cases, fixedCase{name: fmt.Sprintf("DAR(1) of V^%g", v), new: func() (*dar.Process, error) {
			m, err := models.NewV(v)
			if err != nil {
				return nil, err
			}
			return m.Y, nil
		}})
	}
	for _, order := range []int{2, 3} {
		cases = append(cases, fixedCase{name: fmt.Sprintf("DAR(%d) fit of Z^0.975", order), new: func() (*dar.Process, error) {
			z, err := models.NewZ(0.975)
			if err != nil {
				return nil, err
			}
			return models.FitS(z, order)
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() *dar.Process {
				p, err := tc.new()
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			want := plainACF(fresh(), fixedPointLags)
			fix := fixedFrom(want)
			order := fresh().Order()
			t.Logf("fixed point %v from lag %d", want[fix], fix)
			if tc.fixed != 0 && (fix != tc.fixed || want[fix] != tc.value) {
				t.Errorf("fixed point %v from lag %d, want %v from lag %d", want[fix], fix, tc.value, tc.fixed)
			}
			if fix+order >= fixedPointLags {
				t.Fatalf("no fixed point within %d lags", fixedPointLags)
			}

			p := fresh()
			for k, w := range want {
				if got := p.ACF(k); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("ACF(%d) = %v, plain recursion %v", k, got, w)
				}
			}
			if n := dar.MemoLen(p); n < fix || n > fix+order {
				t.Errorf("memo holds %d lags, want %d..%d (fixed point at lag %d, p = %d)", n, fix, fix+order, fix, order)
			}

			for _, rg := range []struct{ from, n int }{
				{0, fixedPointLags + 1},
				{fix - 3, 10},
				{fix - order, order + 1},
				{fix + order - 1, 2},
				{fix - 1024, 2048},
				{30001, 1024},
				{fixedPointLags - 999, 1000},
			} {
				dst := make([]float64, rg.n)
				fresh().ACFRange(dst, rg.from)
				for i, got := range dst {
					if w := want[rg.from+i]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("ACFRange(len %d, from %d)[%d] = %v, plain recursion %v", rg.n, rg.from, i, got, w)
					}
				}
			}
		})
	}
}
