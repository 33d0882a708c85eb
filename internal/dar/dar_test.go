package dar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/traffic/traffictest"
)

func gauss() Marginal { return GaussianMarginal(500, 5000) }

func TestNewValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		rho  float64
		a    []float64
		m    Marginal
	}{
		{"negative rho", -0.1, []float64{1}, gauss()},
		{"rho one", 1, []float64{1}, gauss()},
		{"NaN rho", nan, []float64{1}, gauss()},
		{"empty a", 0.5, nil, gauss()},
		{"negative a", 0.5, []float64{1.5, -0.5}, gauss()},
		{"a not normalised", 0.5, []float64{0.5, 0.2}, gauss()},
		{"NaN a", 0.5, []float64{nan}, gauss()},
		{"NaN in a", 0.5, []float64{0.5, nan}, gauss()},
		{"infinite a", 0.5, []float64{inf, -inf}, gauss()},
		{"nil sampler", 0.5, []float64{1}, Marginal{Mean: 0, Variance: 1}},
		{"negative variance", 0.5, []float64{1}, GaussianMarginal(500, -1)},
		{"NaN variance", 0.5, []float64{1}, GaussianMarginal(500, nan)},
		{"infinite variance", 0.5, []float64{1}, GaussianMarginal(500, inf)},
		{"NaN mean", 0.5, []float64{1}, GaussianMarginal(nan, 1)},
		{"infinite mean", 0.5, []float64{1}, GaussianMarginal(-inf, 1)},
	}
	for _, c := range cases {
		if _, err := New(c.rho, c.a, c.m); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	for _, m := range []Marginal{GaussianMarginal(0, 0), gauss()} {
		if _, err := New(0, []float64{0, 1}, m); err != nil {
			t.Errorf("ρ = 0, a = {0, 1}, variance %v: %v", m.Variance, err)
		}
	}
}

func TestDAR1ACFIsGeometric(t *testing.T) {
	p, err := NewDAR1(0.8, gauss())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 20; k++ {
		want := math.Pow(0.8, float64(k))
		if got := p.ACF(k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ACF(%d) = %v, want %v", k, got, want)
		}
	}
	if got := p.ACF(-3); math.Abs(got-p.ACF(3)) > 1e-15 {
		t.Fatalf("ACF not symmetric: %v vs %v", got, p.ACF(3))
	}
}

// TestACFRangeBitIdentical holds ACFRange, which copies the memo under
// one lock, to ACF for DAR(1), DAR(2) and DAR(3).
func TestACFRangeBitIdentical(t *testing.T) {
	for _, a := range [][]float64{{1}, {0.6, 0.4}, {0.5, 0.3, 0.2}} {
		p, err := New(0.95, a, gauss())
		if err != nil {
			t.Fatal(err)
		}
		traffictest.CheckACFRange(t, p)
	}
}

func TestDARpACFSatisfiesYuleWalker(t *testing.T) {
	p, err := New(0.87, []float64{0.7, 0.3}, gauss())
	if err != nil {
		t.Fatal(err)
	}
	// r(k) = Σ ρ a_i r(|k-i|) must hold for every k ≥ 1.
	for k := 1; k <= 50; k++ {
		var want float64
		for i := 1; i <= 2; i++ {
			lag := k - i
			if lag < 0 {
				lag = -lag
			}
			want += 0.87 * []float64{0.7, 0.3}[i-1] * p.ACF(lag)
		}
		if got := p.ACF(k); math.Abs(got-want) > 1e-10 {
			t.Fatalf("Yule-Walker violated at lag %d: %v vs %v", k, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	p, err := New(0.72, []float64{0.84, 0.16}, gauss())
	if err != nil {
		t.Fatal(err)
	}
	if p.Order() != 2 || p.Rho() != 0.72 {
		t.Fatalf("order/rho wrong: %d %v", p.Order(), p.Rho())
	}
	a := p.SelectionProbs()
	a[0] = 99 // must be a copy
	if p.SelectionProbs()[0] == 99 {
		t.Fatal("SelectionProbs returned internal slice")
	}
	if p.Name() != "DAR(2)" {
		t.Fatalf("name = %q", p.Name())
	}
	p.SetName("S")
	if p.Name() != "S" {
		t.Fatalf("renamed = %q", p.Name())
	}
	if p.Mean() != 500 || p.Variance() != 5000 {
		t.Fatalf("moments = %v %v", p.Mean(), p.Variance())
	}
}

func TestGeneratorMarginalMoments(t *testing.T) {
	p, err := NewDAR1(0.9, gauss())
	if err != nil {
		t.Fatal(err)
	}
	xs := traffic.Generate(p.NewGenerator(3), 400000)
	m, v := stats.Mean(xs), stats.Variance(xs)
	// High rho inflates estimator variance; tolerances sized accordingly.
	if math.Abs(m-500) > 3 {
		t.Fatalf("mean %v, want ≈500", m)
	}
	if math.Abs(v-5000)/5000 > 0.1 {
		t.Fatalf("variance %v, want ≈5000", v)
	}
}

func TestGeneratorEmpiricalACFMatchesAnalytic(t *testing.T) {
	p, err := New(0.87, []float64{0.7, 0.3}, gauss())
	if err != nil {
		t.Fatal(err)
	}
	xs := traffic.Generate(p.NewGenerator(11), 300000)
	acf := stats.ACF(xs, 10)
	for k := 1; k <= 10; k++ {
		if math.Abs(acf[k]-p.ACF(k)) > 0.03 {
			t.Fatalf("empirical ACF(%d) = %v, analytic %v", k, acf[k], p.ACF(k))
		}
	}
}

func TestGeneratorReproducible(t *testing.T) {
	p, err := NewDAR1(0.5, gauss())
	if err != nil {
		t.Fatal(err)
	}
	a := traffic.Generate(p.NewGenerator(42), 100)
	b := traffic.Generate(p.NewGenerator(42), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
	c := traffic.Generate(p.NewGenerator(43), 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical paths")
	}
}

func TestGeneratorRepeatsComeFromHistory(t *testing.T) {
	// With rho = 1 ... not allowed; use rho close to 1 and a discrete
	// marginal so repeats are detectable exactly.
	vals := []float64{1, 2, 3, 4, 5}
	marg := Marginal{
		Mean:     3,
		Variance: 2,
		Sample: func(r *rand.Rand) float64 {
			return vals[r.Intn(len(vals))]
		},
	}
	p, err := New(0.95, []float64{0.5, 0.5}, marg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.NewGenerator(5)
	prev := []float64{g.NextFrame(), g.NextFrame()}
	for i := 0; i < 10000; i++ {
		x := g.NextFrame()
		ok := x == prev[0] || x == prev[1] || x == 1 || x == 2 || x == 3 || x == 4 || x == 5
		if !ok {
			t.Fatalf("value %v is neither history nor marginal support", x)
		}
		prev[0], prev[1] = prev[1], x
	}
}

func TestFitMatchesTargetsExactly(t *testing.T) {
	// Fit to targets that are known to be DAR-feasible, then the fitted
	// model's analytic ACF must reproduce them to solver precision.
	targets := [][]float64{
		{0.82},
		{0.821, 0.759},
		{0.821, 0.759, 0.724},
	}
	for _, tg := range targets {
		p, err := Fit(tg, gauss())
		if err != nil {
			t.Fatalf("fit %v: %v", tg, err)
		}
		for k, want := range tg {
			if got := p.ACF(k + 1); math.Abs(got-want) > 1e-9 {
				t.Fatalf("fit %v: ACF(%d) = %v, want %v", tg, k+1, got, want)
			}
		}
	}
}

func TestFitReproducesPaperTable1DAR2(t *testing.T) {
	// Paper Table 1: the DAR(2) matched to Z^0.975 has ρ ≈ 0.87 with
	// a ≈ (0.70, 0.30); matched to Z^0.7, ρ ≈ 0.72 with a ≈ (0.84, 0.16).
	// Targets computed from the Z^a analytic ACF (α = 0.8, Ts/T0 = 40/2.57).
	z := func(a float64, k int) float64 {
		const alpha = 0.8
		ratio := math.Pow(40.0/2.57, alpha)
		fk := float64(k)
		rx := ratio / (1 + ratio) * 0.5 *
			(math.Pow(fk+1, alpha+1) - 2*math.Pow(fk, alpha+1) + math.Pow(fk-1, alpha+1))
		return 0.5*rx + 0.5*math.Pow(a, fk)
	}
	cases := []struct {
		a       float64
		wantRho float64
		wantA   []float64
	}{
		{0.975, 0.87, []float64{0.70, 0.30}},
		{0.7, 0.72, []float64{0.84, 0.16}},
	}
	for _, c := range cases {
		p, err := Fit([]float64{z(c.a, 1), z(c.a, 2)}, gauss())
		if err != nil {
			t.Fatalf("fit Z^%v: %v", c.a, err)
		}
		if math.Abs(p.Rho()-c.wantRho) > 0.01 {
			t.Errorf("Z^%v: rho = %v, want ≈%v", c.a, p.Rho(), c.wantRho)
		}
		a := p.SelectionProbs()
		for i := range c.wantA {
			if math.Abs(a[i]-c.wantA[i]) > 0.02 {
				t.Errorf("Z^%v: a[%d] = %v, want ≈%v", c.a, i, a[i], c.wantA[i])
			}
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, gauss()); err == nil {
		t.Error("empty targets: expected error")
	}
	if _, err := Fit([]float64{1.2}, gauss()); err == nil {
		t.Error("correlation > 1: expected error")
	}
	if _, err := Fit([]float64{-0.5}, gauss()); err == nil {
		t.Error("negative rho fit: expected error")
	}
}

// TestFitOrderCap holds Fit to MaxOrder: geometric targets, feasible at
// every order, fit at the cap and are refused one above it.
func TestFitOrderCap(t *testing.T) {
	for _, tc := range []struct {
		p  int
		ok bool
	}{
		{1, true},
		{MaxOrder, true},
		{MaxOrder + 1, false},
	} {
		tg := make([]float64, tc.p)
		for k := range tg {
			tg[k] = math.Pow(0.5, float64(k+1))
		}
		proc, err := Fit(tg, gauss())
		if (err == nil) != tc.ok {
			t.Errorf("order %d: err = %v, want ok = %v", tc.p, err, tc.ok)
			continue
		}
		if tc.ok && proc.Order() != tc.p {
			t.Errorf("order %d: fitted order %d", tc.p, proc.Order())
		}
	}
}

// Property: any DAR(1)-feasible single target round-trips through Fit.
func TestFitDAR1RoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		rho := math.Abs(math.Mod(raw, 0.98))
		if rho < 1e-6 {
			return true
		}
		p, err := Fit([]float64{rho}, gauss())
		if err != nil {
			return false
		}
		return math.Abs(p.Rho()-rho) < 1e-12 && p.Order() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: fitted DAR(p) analytic ACF interpolates the targets for
// geometric target sequences (always feasible).
func TestFitGeometricTargetsProperty(t *testing.T) {
	f := func(raw float64, pRaw uint8) bool {
		rho := 0.1 + 0.85*math.Abs(math.Mod(raw, 1))
		p := 1 + int(pRaw%3)
		tg := make([]float64, p)
		for k := range tg {
			tg[k] = math.Pow(rho, float64(k+1))
		}
		proc, err := Fit(tg, gauss())
		if err != nil {
			return false
		}
		for k, want := range tg {
			if math.Abs(proc.ACF(k+1)-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGeneratorDAR3(b *testing.B) {
	p, err := New(0.89, []float64{0.63, 0.18, 0.19}, gauss())
	if err != nil {
		b.Fatal(err)
	}
	g := p.NewGenerator(1).(traffic.BlockGenerator)
	dst := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fill(dst)
	}
	b.ReportMetric(float64(len(dst))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkACFLag1000(b *testing.B) {
	p, _ := New(0.87, []float64{0.7, 0.3}, gauss())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.ACF(1000)
	}
}
