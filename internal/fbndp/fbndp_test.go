package fbndp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/traffic/traffictest"
)

// zParams are the FBNDP component parameters of the paper's Z^a model
// (Table 1): α = 0.8, λ = 6250 cells/s, T0 = 2.57 ms, M = 15, Ts = 40 ms.
func zParams() Params {
	return Params{Alpha: 0.8, Lambda: 6250, T0: 2.57e-3, M: 15, Ts: 0.04}
}

// TestACFRangeBitIdentical holds Params.ACFRange, which carries powers
// forward instead of recomputing them, to ACF bit for bit.
func TestACFRangeBitIdentical(t *testing.T) {
	for _, p := range []Params{
		zParams(),
		{Alpha: 0.4, Lambda: 12500, T0: 0.4, M: 4, Ts: 0.04},
	} {
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		traffictest.CheckACFRange(t, m)
	}
}

func TestValidate(t *testing.T) {
	good := zParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Alpha: 0, Lambda: 1, T0: 1, M: 1, Ts: 1},
		{Alpha: 1, Lambda: 1, T0: 1, M: 1, Ts: 1},
		{Alpha: 1e-16, Lambda: 1, T0: 1, M: 1, Ts: 1},
		{Alpha: 1 - 0x1p-53, Lambda: 1, T0: 1, M: 1, Ts: 1},
		{Alpha: 0.5, Lambda: 0, T0: 1, M: 1, Ts: 1},
		{Alpha: 0.5, Lambda: 1, T0: 0, M: 1, Ts: 1},
		{Alpha: 0.5, Lambda: 1, T0: 1, M: 0, Ts: 1},
		{Alpha: 0.5, Lambda: 1, T0: 1, M: 1, Ts: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := NewModel(bad[0]); err == nil {
		t.Error("NewModel should reject invalid params")
	}
}

// TestValidateExtremeAlpha checks the guard at the edges of α: it must
// return an error, never panic, wherever γ = 2−α rounds out of (1, 2) or
// the crossover A is not finite and positive, and any parameter set it
// accepts must give finite, positive duration constants (no NaN) and a
// ziggurat that closes.
func TestValidateExtremeAlpha(t *testing.T) {
	z := zParams()
	unit := Params{Lambda: 1, T0: 1, M: 1, Ts: 1}
	cases := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		// 1/(α−1) = −2⁵² sends A to 0 unless T0^α·R/K(α) is exactly 1.
		{"Z, α = 1−2⁻⁵²", withAlpha(z, 1-0x1p-52), true},
		{"unit, α = 1−2⁻⁵²", withAlpha(unit, 1-0x1p-52), false},
		// γ = 1 + 2⁻⁵³ rounds onto 1.
		{"Z, α = 1−2⁻⁵³", withAlpha(z, 1-0x1p-53), true},
		// γ = 2 − 10⁻¹⁵ lies in (1, 2) and A ≈ 5·10⁻¹⁸ s is finite: the
		// generator is exact there, if slow.
		{"Z, α = 1e-15", withAlpha(z, 1e-15), false},
		{"unit, α = 1e-15", withAlpha(unit, 1e-15), false},
		// γ = 2 − 10⁻¹⁶ rounds onto 2.
		{"Z, α = 1e-16", withAlpha(z, 1e-16), true},
		{"Z, α = NaN", withAlpha(z, math.NaN()), true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Validate() = %v, want error %v", c.name, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		d := newDurations(c.p.Alpha, c.p.CutoffA())
		for _, v := range []float64{d.gamma, d.a, d.mean, d.intBody, d.a1g, d.eg, d.pag} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: accepted, but durations %+v hold a non-finite or non-positive constant", c.name, d)
				break
			}
		}
		z := newZiggurat(d.gamma)
		if res := (z.f[zigLayers-1] + z.v/z.x[zigLayers-1] - z.gamma) / z.gamma; !(z.x[1] > 1) || !(math.Abs(res) <= 1e-12) {
			t.Errorf("%s: accepted, but its ziggurat has r = %v and closure residual %g", c.name, z.x[1], res)
		}
	}
}

func withAlpha(p Params, alpha float64) Params {
	p.Alpha = alpha
	return p
}

func TestHurst(t *testing.T) {
	if got := zParams().Hurst(); got != 0.9 {
		t.Fatalf("H = %v, want 0.9", got)
	}
}

func TestMeanVarianceMatchTable1(t *testing.T) {
	p := zParams()
	if got := p.Mean(); math.Abs(got-250) > 1e-9 {
		t.Fatalf("mean = %v, want 250 cells/frame", got)
	}
	// With T0 = 2.57 ms the variance should be ≈ 2500 (paper: the FBNDP
	// component of Z^a carries half the total variance of 5000).
	if got := p.Variance(); math.Abs(got-2500) > 20 {
		t.Fatalf("variance = %v, want ≈2500", got)
	}
}

func TestSolveT0ReproducesTable1(t *testing.T) {
	cases := []struct {
		name                string
		mean, vari, alpha   float64
		wantMS, toleranceMS float64
	}{
		// Z^a component: T0 = 2.57 ms.
		{"Z", 250, 2500, 0.8, 2.57, 0.01},
		// V^v component at v = 1: T0 = 3.48 ms.
		{"V", 250, 2500, 0.9, 3.48, 0.01},
		// L: paper lists 1.83 ms; our self-consistent derivation from
		// (μ, σ², α) = (500, 5000, 0.72) gives 1.89 ms — the paper's value
		// implies σ² ≈ 5108, a rounding of their workflow. Shape-preserving.
		{"L", 500, 5000, 0.72, 1.89, 0.01},
	}
	for _, c := range cases {
		t0, err := SolveT0(c.mean, c.vari, c.alpha, 0.04)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(t0*1000-c.wantMS) > c.toleranceMS {
			t.Errorf("%s: T0 = %.4f ms, want ≈%.2f ms", c.name, t0*1000, c.wantMS)
		}
	}
}

func TestSolveT0Errors(t *testing.T) {
	if _, err := SolveT0(100, 50, 0.8, 0.04); err == nil {
		t.Error("under-dispersed input should error")
	}
	if _, err := SolveT0(100, 200, 1.5, 0.04); err == nil {
		t.Error("alpha out of range should error")
	}
}

func TestSolveT0RoundTrip(t *testing.T) {
	// Params built from SolveT0 must reproduce the requested variance.
	t0, err := SolveT0(250, 2500, 0.8, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.8, Lambda: 250 / 0.04, T0: t0, M: 15, Ts: 0.04}
	if got := p.Variance(); math.Abs(got-2500) > 1e-6 {
		t.Fatalf("round-trip variance = %v, want 2500", got)
	}
}

func TestCutoffAConsistentWithT0(t *testing.T) {
	// Recomputing T0 from A and R via the paper's relation must return the
	// original T0: T0^α = K(α)·R^{−1}·A^{α−1}.
	p := zParams()
	a := p.CutoffA()
	if a <= 0 {
		t.Fatalf("A = %v", a)
	}
	t0alpha := kAlpha(p.Alpha) / p.OnRate() * math.Pow(a, p.Alpha-1)
	t0 := math.Pow(t0alpha, 1/p.Alpha)
	if math.Abs(t0-p.T0)/p.T0 > 1e-9 {
		t.Fatalf("round-trip T0 = %v, want %v", t0, p.T0)
	}
}

func TestACFBasicShape(t *testing.T) {
	p := zParams()
	if p.ACF(0) != 1 {
		t.Fatal("ACF(0) must be 1")
	}
	if got, want := p.ACF(-5), p.ACF(5); got != want {
		t.Fatal("ACF must be symmetric in lag")
	}
	// r(1) = [1/(1+(T0/Ts)^α)]·½(2^{α+1}−2) ≈ 0.9 × 0.741 ≈ 0.667.
	if got := p.ACF(1); math.Abs(got-0.667) > 0.005 {
		t.Fatalf("ACF(1) = %v, want ≈0.667", got)
	}
	// Monotone decreasing, positive.
	prev := 1.0
	for k := 1; k <= 2000; k *= 2 {
		r := p.ACF(k)
		if r <= 0 || r >= prev {
			t.Fatalf("ACF not positive-decreasing at lag %d: %v (prev %v)", k, r, prev)
		}
		prev = r
	}
}

func TestACFPowerLawTail(t *testing.T) {
	// For large k, r(k) ≈ c·k^{α−1}·α(α+1)/2-ish; the ratio
	// r(2k)/r(k) → 2^{α−1}.
	p := zParams()
	want := math.Pow(2, p.Alpha-1)
	for _, k := range []int{200, 1000, 5000} {
		ratio := p.ACF(2*k) / p.ACF(k)
		if math.Abs(ratio-want) > 0.01 {
			t.Fatalf("r(2k)/r(k) at k=%d: %v, want ≈%v", k, ratio, want)
		}
	}
}

// sample draws one fresh duration as generator.frame does on a toggle.
func (d durations) sample(s *randx.Stream) float64 {
	return d.a * zigguratFor(d.gamma).draw(s)
}

// checkKS draws n samples with draw and checks them with checkKSSample.
func checkKS(t *testing.T, name string, n int, draw func() float64, cdf func(float64) float64) {
	t.Helper()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw()
	}
	checkKSSample(t, name, xs, cdf)
}

// checkKSSample sorts xs and fails when their Kolmogorov–Smirnov
// statistic D = sup |F_n − F| against cdf exceeds the asymptotic 1%
// critical value √(−ln(0.005)/2)/√n.
func checkKSSample(t *testing.T, name string, xs []float64, cdf func(float64) float64) {
	t.Helper()
	n := len(xs)
	sort.Float64s(xs)
	var d float64
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(float64(i+1)/float64(n)-f, f-float64(i)/float64(n)))
	}
	if crit := math.Sqrt(-math.Log(0.005)/2) / math.Sqrt(float64(n)); d > crit {
		t.Errorf("%s: KS D = %.5f over %d draws exceeds the 1%% critical value %.5f", name, d, n, crit)
	}
}

// durationAlphas are the fractal exponents of the simulated models:
// models.AlphaL, models.AlphaZ and models.AlphaV.
var durationAlphas = []float64{0.72, 0.8, 0.9}

// TestFreshDurationKS holds the fresh-duration draw to the analytic CDF:
// F(t) = 1 − e^{−γt/A} on [0, A] and 1 − e^{−γ}(A/t)^γ beyond.
func TestFreshDurationKS(t *testing.T) {
	for i, alpha := range durationAlphas {
		d := newDurations(alpha, 1.5e-3)
		g := d.gamma
		s := randx.NewStream(int64(100 + i))
		checkKS(t, fmt.Sprintf("α = %v", alpha), 200000, func() float64 { return d.sample(s) },
			func(x float64) float64 {
				if x <= d.a {
					return -math.Expm1(-g * x / d.a)
				}
				return 1 - math.Exp(-g)*math.Pow(d.a/x, g)
			})
	}
}

// TestResidualDurationKS holds sampleResidual to the equilibrium
// residual-life CDF G(t)/E[T], G(t) = ∫_0^t (1−F).
func TestResidualDurationKS(t *testing.T) {
	for i, alpha := range durationAlphas {
		d := newDurations(alpha, 1.5e-3)
		g := d.gamma
		rng := randx.NewStream(int64(200 + i)).Rand()
		checkKS(t, fmt.Sprintf("α = %v", alpha), 200000, func() float64 { return d.sampleResidual(rng) },
			func(x float64) float64 {
				if x <= d.a {
					return d.a / g * -math.Expm1(-g*x/d.a) / d.mean
				}
				return (d.intBody + math.Exp(-g)*math.Pow(d.a, g)*(d.a1g-math.Pow(x, 1-g))/(g-1)) / d.mean
			})
	}
}

func TestDurationsMean(t *testing.T) {
	// Use a milder tail (γ = 1.8) where the sample mean converges well.
	d := newDurations(0.2, 1.0)
	s := randx.NewStream(4)
	var sum float64
	n := 2_000_000
	for i := 0; i < n; i++ {
		sum += d.sample(s)
	}
	got := sum / float64(n)
	if math.Abs(got-d.mean)/d.mean > 0.05 {
		t.Fatalf("sample mean %v, analytic %v", got, d.mean)
	}
}

func TestDurationsResidualSurvival(t *testing.T) {
	// The equilibrium residual distribution has survival
	// P(Te > t) = (E[T] − G(t))/E[T]; verify empirically at several t.
	d := newDurations(0.5, 1.0)
	rng := randx.NewStream(12).Rand()
	n := 400000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.sampleResidual(rng)
	}
	gOf := func(t float64) float64 {
		g := d.gamma
		if t <= d.a {
			return d.a / g * (1 - math.Exp(-g*t/d.a))
		}
		return d.intBody + math.Exp(-g)*math.Pow(d.a, g)*
			(math.Pow(d.a, 1-g)-math.Pow(t, 1-g))/(g-1)
	}
	for _, tv := range []float64{0.2, 0.5, 1.0, 3.0, 10.0} {
		want := (d.mean - gOf(tv)) / d.mean
		var count int
		for _, s := range samples {
			if s > tv {
				count++
			}
		}
		got := float64(count) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("P(Te > %v) = %v, want %v", tv, got, want)
		}
	}
}

func TestDurationsSamplesPositive(t *testing.T) {
	d := newDurations(0.8, 2.0)
	stream := randx.NewStream(3)
	rng := stream.Rand()
	for i := 0; i < 100000; i++ {
		if s := d.sample(stream); s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("bad duration sample %v", s)
		}
		if s := d.sampleResidual(rng); s <= 0 || math.IsNaN(s) {
			t.Fatalf("bad residual sample %v", s)
		}
	}
}

func TestGeneratorMeanAndVariance(t *testing.T) {
	// Long-range dependence makes single-path moment estimators converge
	// at rate n^{H−1} (stable-law fluctuations from the heavy-tailed
	// phases), so average over independent replications as the paper's own
	// simulations do.
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	var meanSum, varSum float64
	const reps = 6
	for seed := int64(1); seed <= reps; seed++ {
		xs := traffic.Generate(m.NewGenerator(seed), 100000)
		meanSum += stats.Mean(xs)
		varSum += stats.Variance(xs)
	}
	gotMean := meanSum / reps
	if math.Abs(gotMean-250)/250 > 0.05 {
		t.Fatalf("replication mean %v, want ≈250", gotMean)
	}
	gotVar := varSum / reps
	// The windowed variance estimator under-measures LRD variance by the
	// unseen low-frequency power (≈15% at this H and window).
	if gotVar < 1500 || gotVar > 3500 {
		t.Fatalf("replication variance %v, want within [1500, 3500] of ≈2500", gotVar)
	}
}

func TestGeneratorShortTermACF(t *testing.T) {
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	xs := traffic.Generate(m.NewGenerator(31), 200000)
	acf := stats.ACF(xs, 5)
	for k := 1; k <= 5; k++ {
		if math.Abs(acf[k]-m.ACF(k)) > 0.12 {
			t.Fatalf("ACF(%d) = %v, analytic %v", k, acf[k], m.ACF(k))
		}
	}
}

func TestGeneratorLongMemoryPresent(t *testing.T) {
	// Average ACF over lags 50..100 should be clearly positive (an SRD
	// process of matched lag-1 correlation would be ≈0 there).
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	xs := traffic.Generate(m.NewGenerator(77), 300000)
	acf := stats.ACF(xs, 100)
	var sum float64
	for k := 50; k <= 100; k++ {
		sum += acf[k]
	}
	avg := sum / 51
	if avg < 0.05 {
		t.Fatalf("mean ACF over lags 50..100 = %v; long memory missing", avg)
	}
}

func TestGeneratorReproducible(t *testing.T) {
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	a := traffic.Generate(m.NewGenerator(5), 200)
	b := traffic.Generate(m.NewGenerator(5), 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i)
		}
	}
}

func TestGeneratorNonNegativeCounts(t *testing.T) {
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range traffic.Generate(m.NewGenerator(1), 5000) {
		if x < 0 || x != math.Trunc(x) {
			t.Fatalf("frame count %v not a non-negative integer", x)
		}
	}
}

func TestModelName(t *testing.T) {
	m, _ := NewModel(zParams())
	if m.Name() == "" {
		t.Fatal("empty name")
	}
	m.SetName("L")
	if m.Name() != "L" {
		t.Fatal("SetName failed")
	}
}

func BenchmarkGeneratorFrame(b *testing.B) {
	m, err := NewModel(zParams())
	if err != nil {
		b.Fatal(err)
	}
	g := m.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.NextFrame()
	}
}

// pinnedStreams are the FBNDP components of the three simulated model
// families, as models.NewZ(0.975), models.NewV(1.5) and models.NewL
// derive them. The hashes were recorded when fresh durations started
// coming from the ziggurat over their own density (draw version
// fbndp.2); the oracle in internal/models and TestZigguratExitKS are
// the statistical evidence for that re-baseline.
var pinnedStreams = []struct {
	name   string
	p      Params
	frames int
	hash   uint64
}{
	{"Z^0.975", Params{Alpha: 0.8, Lambda: 6250, T0: 0.002566001196398337, M: 15, Ts: 0.04}, 3000, 0x70c4fb1b1836d02f},
	{"V^1.5", Params{Alpha: 0.9, Lambda: 7500, T0: 0.0034816934974989874, M: 15, Ts: 0.04}, 3000, 0x50b1304200bd42d},
	{"L", Params{Alpha: 0.72, Lambda: 12500, T0: 0.0018911377881618396, M: 30, Ts: 0.04}, 3000, 0x4793c3da5251154f},
}

// streamHash runs frames frames from seed and returns an FNV-1a hash of
// every frame count and, after each frame, of every phase's state (on
// and the bits of remaining).
func streamHash(t *testing.T, p Params, seed int64, frames int) uint64 {
	t.Helper()
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGenerator(seed).(*generator)
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for f := 0; f < frames; f++ {
		put(math.Float64bits(g.NextFrame()))
		for _, ph := range g.phases {
			if ph.on {
				put(1)
			} else {
				put(0)
			}
			put(math.Float64bits(ph.remaining))
		}
	}
	return h.Sum64()
}

// TestDurationStreamPinned holds the ON/OFF duration stream bit for bit.
// The CLR manifests cannot see a one-ulp change in a duration; this hash
// of every phase's remaining time after every frame can.
func TestDurationStreamPinned(t *testing.T) {
	for _, c := range pinnedStreams {
		if got := streamHash(t, c.p, 1996, c.frames); got != c.hash {
			t.Errorf("%s: stream hash %#x, want %#x", c.name, got, c.hash)
		}
	}
}
