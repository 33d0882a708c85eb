package fgn

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/traffic/traffictest"
)

func TestNewModelValidation(t *testing.T) {
	for _, h := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewModel(h, 0, 1); err == nil {
			t.Errorf("H=%v: expected error", h)
		}
	}
	if _, err := NewModel(0.8, 0, 0); err == nil {
		t.Error("zero variance: expected error")
	}
	if _, err := NewModel(0.8, 0, -1); err == nil {
		t.Error("negative variance: expected error")
	}
}

func TestACFExactForm(t *testing.T) {
	m, err := NewModel(0.9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.ACF(0) != 1 {
		t.Fatal("ACF(0) != 1")
	}
	// r(1) = ½(2^{2H} − 2) for FGN.
	want := 0.5 * (math.Pow(2, 1.8) - 2)
	if got := m.ACF(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ACF(1) = %v, want %v", got, want)
	}
	if m.ACF(-7) != m.ACF(7) {
		t.Fatal("ACF not symmetric")
	}
}

// TestACFRangeBitIdentical holds ACFRange to ACF bit for bit.
func TestACFRangeBitIdentical(t *testing.T) {
	for _, h := range []float64{0.7, 0.9} {
		m, err := NewModel(h, 500, 5000)
		if err != nil {
			t.Fatal(err)
		}
		traffictest.CheckACFRange(t, m)
	}
}

func TestACFWhiteNoiseCase(t *testing.T) {
	m, err := NewModel(0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if got := m.ACF(k); math.Abs(got) > 1e-12 {
			t.Fatalf("H=0.5 ACF(%d) = %v, want 0", k, got)
		}
	}
}

func TestACFPowerLawTail(t *testing.T) {
	m, err := NewModel(0.86, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// r(k) ~ H(2H−1)k^{2H−2}.
	h := 0.86
	for _, k := range []int{100, 1000} {
		want := h * (2*h - 1) * math.Pow(float64(k), 2*h-2)
		if got := m.ACF(k); math.Abs(got-want)/want > 0.01 {
			t.Fatalf("ACF(%d) = %v, asymptotic %v", k, got, want)
		}
	}
}

func TestGeneratorMomentsAndACF(t *testing.T) {
	m, err := NewModel(0.8, 500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	m.BlockLen = 1 << 14
	xs := traffic.Generate(m.NewGenerator(6), 1<<17)
	if got := stats.Mean(xs); math.Abs(got-500) > 8 {
		t.Fatalf("mean %v, want ≈500", got)
	}
	if got := stats.Variance(xs); math.Abs(got-5000)/5000 > 0.12 {
		t.Fatalf("variance %v, want ≈5000", got)
	}
	acf := stats.ACF(xs, 20)
	for k := 1; k <= 20; k++ {
		if math.Abs(acf[k]-m.ACF(k)) > 0.05 {
			t.Fatalf("ACF(%d) = %v, analytic %v", k, acf[k], m.ACF(k))
		}
	}
}

func TestGeneratorGaussianMarginal(t *testing.T) {
	m, err := NewModel(0.75, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.BlockLen = 1 << 13
	xs := traffic.Generate(m.NewGenerator(9), 1<<16)
	// Standard normal quantile checks.
	for _, q := range []struct{ p, want float64 }{
		{0.5, 0}, {0.8413, 1}, {0.1587, -1},
	} {
		if got := stats.Quantile(xs, q.p); math.Abs(got-q.want) > 0.06 {
			t.Fatalf("quantile(%v) = %v, want ≈%v", q.p, got, q.want)
		}
	}
}

func TestGeneratorCrossesBlocks(t *testing.T) {
	m, err := NewModel(0.7, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	m.BlockLen = 64 // force many refills
	xs := traffic.Generate(m.NewGenerator(4), 10000)
	if got := stats.Mean(xs); math.Abs(got-100) > 1 {
		t.Fatalf("mean across blocks %v, want ≈100", got)
	}
	if got := stats.Variance(xs); math.Abs(got-25)/25 > 0.15 {
		t.Fatalf("variance across blocks %v, want ≈25", got)
	}
}

func TestGeneratorReproducible(t *testing.T) {
	m, _ := NewModel(0.85, 0, 1)
	m.BlockLen = 256
	a := traffic.Generate(m.NewGenerator(11), 600)
	b := traffic.Generate(m.NewGenerator(11), 600)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestGeneratorNonPow2BlockLenNormalised(t *testing.T) {
	m, _ := NewModel(0.8, 0, 1)
	m.BlockLen = 100 // not a power of two; generator must cope
	xs := traffic.Generate(m.NewGenerator(2), 500)
	if len(xs) != 500 {
		t.Fatal("generator failed with non-power-of-two block length")
	}
	for _, v := range xs {
		if math.IsNaN(v) {
			t.Fatal("NaN sample")
		}
	}
}

func TestEigenvaluesNonNegative(t *testing.T) {
	for _, h := range []float64{0.55, 0.7, 0.9, 0.99} {
		m, _ := NewModel(h, 0, 1)
		for _, s := range eigenvalues(m, 1024) {
			if s < 0 || math.IsNaN(s) {
				t.Fatalf("H=%v: bad eigenvalue sqrt %v", h, s)
			}
		}
	}
}

func TestModelName(t *testing.T) {
	m, _ := NewModel(0.9, 0, 1)
	if m.Name() == "" {
		t.Fatal("empty name")
	}
	m.SetName("fgn-x")
	if m.Name() != "fgn-x" {
		t.Fatal("SetName failed")
	}
}

func BenchmarkGeneratorFrame(b *testing.B) {
	m, _ := NewModel(0.9, 500, 5000)
	g := m.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.NextFrame()
	}
}

func BenchmarkSynthesis64k(b *testing.B) {
	m, _ := NewModel(0.9, 500, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := m.NewGenerator(int64(i))
		_ = g.NextFrame() // forces one full block synthesis
	}
}
