package models

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestAllModelsShareMarginal(t *testing.T) {
	// The crucial design property (paper §3): identical Gaussian marginals,
	// so first-order statistics contribute nothing to queueing differences.
	var ms []traffic.Model
	for _, v := range VValues {
		m, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, a := range ZValues {
		m, err := NewZ(a)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	ms = append(ms, l)
	z, _ := NewZ(0.975)
	for _, p := range SOrders {
		s, err := FitS(z, p)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, s)
	}
	for _, m := range ms {
		if math.Abs(m.Mean()-Mean) > 1e-6 {
			t.Errorf("%s: mean %v, want %v", m.Name(), m.Mean(), Mean)
		}
		if math.Abs(m.Variance()-Variance)/Variance > 1e-6 {
			t.Errorf("%s: variance %v, want %v", m.Name(), m.Variance(), Variance)
		}
	}
}

func TestZParameterValidation(t *testing.T) {
	for _, a := range []float64{0, 1, -0.2, 1.3} {
		if _, err := NewZ(a); err == nil {
			t.Errorf("NewZ(%v): expected error", a)
		}
	}
}

func TestVParameterValidation(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewV(v); err == nil {
			t.Errorf("NewV(%v): expected error", v)
		}
	}
}

func TestZEqualComponentSplit(t *testing.T) {
	z, err := NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z.V()-1) > 1e-9 {
		t.Fatalf("Z weight v = %v, want 1", z.V())
	}
	if math.Abs(z.X.Mean()-z.Y.Mean()) > 1e-9 {
		t.Fatal("Z components should contribute equal means")
	}
}

func TestTable1T0Values(t *testing.T) {
	// Paper Table 1: T0 = 3.48 ms for V^v, 2.57 ms for Z^a.
	v, err := NewV(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.X.P.T0 * 1000; math.Abs(got-3.48) > 0.01 {
		t.Errorf("V T0 = %v ms, want ≈3.48", got)
	}
	z, err := NewZ(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.X.P.T0 * 1000; math.Abs(got-2.57) > 0.01 {
		t.Errorf("Z T0 = %v ms, want ≈2.57", got)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	// Our self-consistent derivation gives 1.89 ms (paper prints 1.83; see
	// EXPERIMENTS.md for the reconciliation).
	if got := l.P.T0 * 1000; math.Abs(got-1.89) > 0.01 {
		t.Errorf("L T0 = %v ms, want ≈1.89", got)
	}
}

func TestTable1LambdaValues(t *testing.T) {
	// Paper Table 1: λ = 5000, 6250, 7500 cells/s across v = 0.67, 1, 1.5.
	wants := map[float64]float64{0.67: 5000, 1: 6250, 1.5: 7500}
	for v, want := range wants {
		m, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.X.P.Lambda; math.Abs(got-want)/want > 0.005 {
			t.Errorf("V^%v: lambda = %v, want ≈%v", v, got, want)
		}
	}
	z, _ := NewZ(0.9)
	if got := z.X.P.Lambda; math.Abs(got-6250) > 1 {
		t.Errorf("Z lambda = %v, want 6250", got)
	}
	l, _ := NewL()
	if got := l.P.Lambda; math.Abs(got-12500) > 1 {
		t.Errorf("L lambda = %v, want 12500", got)
	}
}

func TestVFirstLagCorrelationPinned(t *testing.T) {
	// The defining property of the V^v family: identical r(1) across v.
	ref, err := NewV(1)
	if err != nil {
		t.Fatal(err)
	}
	r1 := ref.ACF(1)
	for _, v := range []float64{0.3, 0.67, 1.5, 3} {
		m, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.ACF(1); math.Abs(got-r1) > 1e-9 {
			t.Errorf("V^%v: r(1) = %v, want %v", v, got, r1)
		}
	}
}

func TestVShortTermCorrelationsClose(t *testing.T) {
	// Paper Fig 3-(a): the first ~5 lags of V^0.67, V^1, V^1.5 are very
	// close to each other.
	var ms []*Composite
	for _, v := range VValues {
		m, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	// "Very close" in the paper's Fig 3-(a) sense: exact at lag 1, then
	// within ~0.08 absolute through lag 5 (the paper's own parameters give
	// a spread of ≈0.066 at lag 5).
	for k := 1; k <= 5; k++ {
		lo, hi := 1.0, 0.0
		for _, m := range ms {
			r := m.ACF(k)
			lo, hi = math.Min(lo, r), math.Max(hi, r)
		}
		limit := 0.08
		if k == 1 {
			limit = 1e-9
		}
		if hi-lo > limit {
			t.Errorf("lag %d: V^v ACF spread %v exceeds %v", k, hi-lo, limit)
		}
	}
}

func TestVLongTermCorrelationsDiffer(t *testing.T) {
	// The long-lag correlations of V^v must scale with v/(1+v).
	v1, _ := NewV(0.67)
	v2, _ := NewV(1.5)
	k := 500
	want := (1.5 / 2.5) / (0.67 / 1.67)
	got := v2.ACF(k) / v1.ACF(k)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("V long-lag ratio = %v, want ≈%v", got, want)
	}
}

func TestVDerivedANearPaper(t *testing.T) {
	// Paper Table 1 lists a = 0.799761, 0.8, 0.800362. Our self-consistent
	// derivation lands within 0.006 of those values (see EXPERIMENTS.md);
	// the defining invariant (pinned r(1)) is tested exactly above.
	wants := map[float64]float64{0.67: 0.799761, 1: 0.8, 1.5: 0.800362}
	for v, want := range wants {
		m, err := NewV(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Y.Rho(); math.Abs(got-want) > 0.006 {
			t.Errorf("V^%v: a = %v, want ≈%v", v, got, want)
		}
	}
}

func TestZShortTermCorrelationsSpread(t *testing.T) {
	// Paper Fig 3-(b): larger a gives stronger short-term correlations.
	prev := 0.0
	for _, a := range ZValues {
		z, err := NewZ(a)
		if err != nil {
			t.Fatal(err)
		}
		r5 := z.ACF(5)
		if r5 <= prev {
			t.Fatalf("Z^%v: ACF(5) = %v not increasing in a", a, r5)
		}
		prev = r5
	}
}

func TestZLongTermCorrelationsIdentical(t *testing.T) {
	// All Z^a share the FBNDP tail: at large lags the a^k term vanishes
	// (for a = 0.99 the geometric residue only dies past lag ~1500).
	z1, _ := NewZ(0.7)
	z2, _ := NewZ(0.99)
	for _, k := range []int{2000, 5000} {
		r1, r2 := z1.ACF(k), z2.ACF(k)
		if math.Abs(r1-r2)/r1 > 0.01 {
			t.Fatalf("lag %d: Z^0.7 %v vs Z^0.99 %v should match", k, r1, r2)
		}
	}
}

func TestZAndLTailsClose(t *testing.T) {
	// Paper Fig 3-(b): Z^a and L long-term correlations are close up to at
	// least 1000 lags (within a factor ~1.6 on this log-log scale, crossing
	// near lag 900).
	z, _ := NewZ(0.975)
	l, _ := NewL()
	for _, k := range []int{50, 200, 800, 1000} {
		ratio := l.ACF(k) / z.ACF(k)
		if ratio < 0.6 || ratio > 1.8 {
			t.Fatalf("lag %d: L/Z ACF ratio %v outside [0.6, 1.8]", k, ratio)
		}
	}
}

func TestFitLAlphaRecoversPaperChoice(t *testing.T) {
	// The tail-fit over lags 10..1000 against Z^a should land near the
	// paper's α = 0.72.
	z, _ := NewZ(0.975)
	alpha, err := FitLAlpha(z, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0.66 || alpha > 0.78 {
		t.Fatalf("fitted α = %v, want ≈0.72", alpha)
	}
}

func TestFitLAlphaValidation(t *testing.T) {
	z, _ := NewZ(0.9)
	if _, err := FitLAlpha(z, 0, 100); err == nil {
		t.Error("lagLo < 1 should error")
	}
	if _, err := FitLAlpha(z, 100, 50); err == nil {
		t.Error("inverted window should error")
	}
}

func TestFitSMatchesACF(t *testing.T) {
	z, _ := NewZ(0.975)
	for _, p := range SOrders {
		s, err := FitS(z, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for k := 1; k <= p; k++ {
			if math.Abs(s.ACF(k)-z.ACF(k)) > 1e-9 {
				t.Fatalf("DAR(%d): ACF(%d) = %v, want %v", p, k, s.ACF(k), z.ACF(k))
			}
		}
	}
	if _, err := FitS(z, 0); err == nil {
		t.Error("order 0 should error")
	}
}

func TestCompositeGeneratorMoments(t *testing.T) {
	z, err := NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	var meanSum, varSum float64
	const reps = 4
	for seed := int64(1); seed <= reps; seed++ {
		xs := traffic.Generate(z.NewGenerator(seed), 80000)
		meanSum += stats.Mean(xs)
		varSum += stats.Variance(xs)
	}
	if got := meanSum / reps; math.Abs(got-500)/500 > 0.05 {
		t.Fatalf("Z^0.9 replication mean %v, want ≈500", got)
	}
	if got := varSum / reps; got < 3200 || got > 7000 {
		t.Fatalf("Z^0.9 replication variance %v, want ≈5000 (LRD-widened band)", got)
	}
}

func TestCompositeGeneratorShortACF(t *testing.T) {
	z, _ := NewZ(0.975)
	xs := traffic.Generate(z.NewGenerator(13), 200000)
	acf := stats.ACF(xs, 3)
	for k := 1; k <= 3; k++ {
		if math.Abs(acf[k]-z.ACF(k)) > 0.08 {
			t.Fatalf("ACF(%d) = %v, analytic %v", k, acf[k], z.ACF(k))
		}
	}
}

func TestCompositeGeneratorReproducible(t *testing.T) {
	z, _ := NewZ(0.7)
	a := traffic.Generate(z.NewGenerator(3), 100)
	b := traffic.Generate(z.NewGenerator(3), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed paths diverged")
		}
	}
}

func TestDeriveTable1Complete(t *testing.T) {
	tab, err := DeriveTable1()
	if err != nil {
		t.Fatal(err)
	}
	// 3 V rows + 4 Z rows + 1 L row.
	if len(tab.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(tab.Rows))
	}
	// 2 targets × 3 orders of DAR fits.
	if len(tab.Fits) != 6 {
		t.Fatalf("got %d fits, want 6", len(tab.Fits))
	}
	if tab.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestDeriveTable1FitsMatchPaper(t *testing.T) {
	tab, err := DeriveTable1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 1 DAR fits (ρ, a_i) with loose tolerances: ours are exact
	// Yule-Walker solutions against our analytic Z ACF.
	type want struct {
		rho float64
		sel []float64
	}
	wants := map[[2]float64]want{
		{0.7, 1}:   {0.68, []float64{1}},
		{0.975, 1}: {0.82, []float64{1}},
		{0.975, 2}: {0.87, []float64{0.70, 0.30}},
		{0.7, 2}:   {0.72, []float64{0.84, 0.16}},
		{0.975, 3}: {0.89, []float64{0.63, 0.18, 0.19}},
		{0.7, 3}:   {0.73, []float64{0.82, 0.10, 0.08}},
	}
	for _, f := range tab.Fits {
		w, ok := wants[[2]float64{f.TargetA, float64(f.Order)}]
		if !ok {
			continue
		}
		if math.Abs(f.Rho-w.rho) > 0.02 {
			t.Errorf("Z^%v DAR(%d): rho = %v, want ≈%v", f.TargetA, f.Order, f.Rho, w.rho)
		}
		for i := range w.sel {
			if math.Abs(f.Sel[i]-w.sel[i]) > 0.05 {
				t.Errorf("Z^%v DAR(%d): a%d = %v, want ≈%v",
					f.TargetA, f.Order, i+1, f.Sel[i], w.sel[i])
			}
		}
	}
}

func BenchmarkZGenerator(b *testing.B) {
	z, err := NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	g := z.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.NextFrame()
	}
}
