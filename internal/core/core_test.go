package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dar"
	"repro/internal/fgn"
	"repro/internal/models"
	"repro/internal/traffic"
)

// whiteNoise is a trivially uncorrelated model for closed-form checks.
type whiteNoise struct{ mu, sigma2 float64 }

func (w whiteNoise) Name() string      { return "white" }
func (w whiteNoise) Mean() float64     { return w.mu }
func (w whiteNoise) Variance() float64 { return w.sigma2 }
func (w whiteNoise) ACF(k int) float64 {
	if k == 0 {
		return 1
	}
	return 0
}
func (w whiteNoise) NewGenerator(seed int64) traffic.Generator {
	panic("not used")
}

func mustDAR1(t testing.TB, rho float64) *dar.Process {
	t.Helper()
	p, err := dar.NewDAR1(rho, dar.GaussianMarginal(500, 5000))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// badOperating holds operating points every check must reject; a bare
// c <= μ or b < 0 test lets the NaN ones through, and c = +Inf passes
// c > μ.
var badOperating = []Operating{
	{C: 538, B: 10, N: 0},           // bad N
	{C: 538, B: -1, N: 30},          // bad buffer
	{C: 500, B: 10, N: 30},          // c == mean: unstable
	{C: 400, B: 10, N: 30},          // c < mean
	{C: math.NaN(), B: 10, N: 30},   // c NaN
	{C: math.Inf(1), B: 10, N: 30},  // c +Inf
	{C: 538, B: math.NaN(), N: 30},  // b NaN
	{C: 538, B: math.Inf(1), N: 30}, // b +Inf
}

func TestOperatingValidate(t *testing.T) {
	m := whiteNoise{500, 5000}
	cases := badOperating
	for i, op := range cases {
		if err := op.Validate(m); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if err := (Operating{C: 538, B: 0, N: 1}).Validate(m); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
}

func TestVarianceOfSumWhiteNoise(t *testing.T) {
	m := whiteNoise{0, 7}
	vs := AggregateVariance(m, 50)
	for i, v := range vs {
		want := 7 * float64(i+1)
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("V(%d) = %v, want %v", i+1, v, want)
		}
	}
}

func TestVarianceOfSumMatchesBruteForce(t *testing.T) {
	// V(m) = Σ_i Σ_j Cov(Y_i, Y_j) computed directly from the ACF.
	p := mustDAR1(t, 0.8)
	vs := AggregateVariance(p, 40)
	for m := 1; m <= 40; m++ {
		var brute float64
		for i := 1; i <= m; i++ {
			for j := 1; j <= m; j++ {
				lag := i - j
				if lag < 0 {
					lag = -lag
				}
				brute += p.Variance() * p.ACF(lag)
			}
		}
		if math.Abs(vs[m-1]-brute)/brute > 1e-10 {
			t.Fatalf("V(%d) = %v, brute force %v", m, vs[m-1], brute)
		}
	}
}

func TestVarianceOfSumSubQuadratic(t *testing.T) {
	// V(m) ≤ σ²m² with equality only for perfectly correlated input; this
	// bound is what makes the CTS finite.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewVarianceOfSum(z)
	for m := 1; m <= 5000; m++ {
		bound := z.Variance() * float64(m) * float64(m)
		if acc.Value() > bound {
			t.Fatalf("V(%d) = %v exceeds σ²m² = %v", m, acc.Value(), bound)
		}
		acc.Advance()
	}
}

func TestAggregateVarianceEdge(t *testing.T) {
	if AggregateVariance(whiteNoise{0, 1}, 0) != nil {
		t.Fatal("upTo < 1 should return nil")
	}
}

func TestCTSZeroBufferIsOne(t *testing.T) {
	// Paper §4.2: m*_0 = 1 always — correlations are irrelevant at zero
	// buffer.
	ms := []traffic.Model{
		whiteNoise{500, 5000},
		mustDAR1(t, 0.99),
	}
	z, err := models.NewZ(0.99)
	if err != nil {
		t.Fatal(err)
	}
	ms = append(ms, z)
	for _, m := range ms {
		res, err := CTS(m, Operating{C: 538, B: 0, N: 30}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.M != 1 {
			t.Errorf("%s: m*_0 = %d, want 1", m.Name(), res.M)
		}
	}
}

func TestCTSNonDecreasingInBuffer(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, b := range []float64{0, 5, 10, 20, 50, 100, 200, 400} {
		res, err := CTS(z, Operating{C: 538, B: b, N: 30}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.M < prev {
			t.Fatalf("m*_b decreased at b=%v: %d < %d", b, res.M, prev)
		}
		prev = res.M
	}
}

func TestCTSStrongerShortTermCorrelationsRaiseCTS(t *testing.T) {
	// Paper Fig 4-(b): higher a ⇒ larger m*_b at the same buffer.
	op := Operating{C: 526, B: 30, N: 100}
	prev := 0
	for _, a := range models.ZValues {
		z, err := models.NewZ(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CTS(z, op, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.M < prev {
			t.Fatalf("Z^%v: m* = %d < previous %d", a, res.M, prev)
		}
		prev = res.M
	}
	if prev < 2 {
		t.Fatalf("strongest model CTS %d suspiciously small", prev)
	}
}

func TestCTSSlopeAR1(t *testing.T) {
	// For an AR(1)-like process and large b, m*_b ≈ b/(c−μ).
	p := mustDAR1(t, 0.9)
	op := Operating{C: 526, B: 4000, N: 100}
	res, err := CTS(p, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := op.B * CTSSlopeAR1(op.C, p.Mean())
	if math.Abs(float64(res.M)-want)/want > 0.15 {
		t.Fatalf("m* = %d, AR(1) asymptote %v", res.M, want)
	}
}

func TestCTSSlopeLRD(t *testing.T) {
	// For FGN (exact V(m) = σ²m^{2H}), m*_b ≈ H/((1−H)(c−μ))·b.
	m, err := fgn.NewModel(0.9, 500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	op := Operating{C: 526, B: 500, N: 100}
	res, err := CTS(m, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := op.B * CTSSlopeLRD(0.9, op.C, 500)
	if math.Abs(float64(res.M)-want)/want > 0.1 {
		t.Fatalf("m* = %d, LRD asymptote %v", res.M, want)
	}
}

func TestCTSFiniteForLRD(t *testing.T) {
	// The headline claim: even with LRD input the CTS is finite and the
	// scan's stopping rule fires.
	z, err := models.NewZ(0.99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CTS(z, Operating{C: 538, B: 300, N: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("stopping rule did not fire")
	}
	if res.M < 1 || res.M > 100000 {
		t.Fatalf("implausible CTS %d", res.M)
	}
}

func TestCTSInvalidOperatingPoint(t *testing.T) {
	if _, err := CTS(whiteNoise{500, 1}, Operating{C: 499, B: 1, N: 1}, 0); err == nil {
		t.Fatal("expected error for unstable point")
	}
}

func TestRateFunctionWhiteNoiseClosedForm(t *testing.T) {
	// For white noise, I(c,b) = inf_m (b+md)²/(2σ²m). Compare against a
	// fine continuous minimisation: the integer restriction makes I at
	// least the continuous value 2bd/σ²·... (continuous optimum m = b/d).
	w := whiteNoise{500, 5000}
	op := Operating{C: 526, B: 260, N: 1} // b/d = 10, integer-aligned
	got, err := RateFunction(w, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := op.C - w.mu
	want := (op.B + (op.B/d)*d) * (op.B + (op.B/d)*d) / (2 * w.sigma2 * op.B / d)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("I = %v, want %v", got, want)
	}
}

func TestBahadurRaoTighterThanLargeN(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	op := Operating{C: 538, B: 100, N: 30}
	br, err := BahadurRao(z, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := LargeN(z, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br >= ln {
		t.Fatalf("B-R %v should be below large-N %v", br, ln)
	}
	if br <= 0 || ln > 1 {
		t.Fatalf("estimates out of range: %v %v", br, ln)
	}
}

func TestBOPMonotoneInBuffer(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, b := range []float64{0, 20, 50, 100, 200} {
		p, err := BahadurRao(z, Operating{C: 538, B: b, N: 30}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("BOP not decreasing at b=%v: %v >= %v", b, p, prev)
		}
		prev = p
	}
}

func TestBOPMonotoneInBandwidth(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, c := range []float64{520, 530, 540, 560} {
		p, err := BahadurRao(z, Operating{C: c, B: 50, N: 30}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("BOP not decreasing at c=%v: %v >= %v", c, p, prev)
		}
		prev = p
	}
}

func TestStrongerCorrelationsSlowDecay(t *testing.T) {
	// Paper Fig 5-(b): at a fixed positive buffer, stronger short-term
	// correlations yield higher overflow probability.
	op := Operating{C: 538, B: 150, N: 30}
	prev := 0.0
	for _, a := range models.ZValues {
		z, err := models.NewZ(a)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BahadurRao(z, op, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("Z^%v: BOP %v not increasing in a (prev %v)", a, p, prev)
		}
		prev = p
	}
}

func TestWeibullMatchesBahadurRaoOnFGN(t *testing.T) {
	// FGN has exactly V(m) = σ²m^{2H}, so the closed-form Weibull Eq. 6
	// must agree with the numerically minimised Bahadur-Rao up to the
	// integer-m restriction.
	h := 0.86
	m, err := fgn.NewModel(h, 500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	p := LRDParams{H: h, G: 1, Mu: 500, Sigma2: 5000}
	for _, b := range []float64{50, 150, 400} {
		op := Operating{C: 538, B: b, N: 30}
		wb, err := WeibullLRD(p, op)
		if err != nil {
			t.Fatal(err)
		}
		br, err := BahadurRao(m, op, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(math.Log(wb) - math.Log(br)); d > 0.02*math.Abs(math.Log(br)) {
			t.Fatalf("b=%v: log Weibull %v vs log B-R %v", b, math.Log(wb), math.Log(br))
		}
	}
}

func TestWeibullHalfIsLogLinear(t *testing.T) {
	// H = 1/2 reduces Eq. 6's exponent to N·I of white noise: J = 2Nbd/σ².
	p := LRDParams{H: 0.5, G: 1, Mu: 500, Sigma2: 5000}
	op := Operating{C: 538, B: 100, N: 30}
	j := WeibullJ(p, op)
	d := op.C - p.Mu
	want := 2 * float64(op.N) * op.B * d / p.Sigma2
	if math.Abs(j-want)/want > 1e-12 {
		t.Fatalf("J = %v, want %v", j, want)
	}
}

func TestWeibullValidation(t *testing.T) {
	op := Operating{C: 538, B: 100, N: 30}
	bad := []LRDParams{
		{H: 0.4, G: 1, Mu: 500, Sigma2: 5000},
		{H: 1.0, G: 1, Mu: 500, Sigma2: 5000},
		{H: 0.9, G: 0, Mu: 500, Sigma2: 5000},
		{H: 0.9, G: 2, Mu: 500, Sigma2: 5000},
		{H: 0.9, G: 1, Mu: 500, Sigma2: 0},
		{H: 0.9, G: 1, Mu: 600, Sigma2: 5000},
		{H: math.NaN(), G: 1, Mu: 500, Sigma2: 5000},
		{H: 0.9, G: math.NaN(), Mu: 500, Sigma2: 5000},
		{H: 0.9, G: 1, Mu: 500, Sigma2: math.NaN()},
		{H: 0.9, G: 1, Mu: 500, Sigma2: math.Inf(1)},
		{H: 0.9, G: 1, Mu: math.NaN(), Sigma2: 5000},
	}
	for i, p := range bad {
		if pr, err := WeibullLRD(p, op); err == nil {
			t.Errorf("case %d: expected error, got %v", i, pr)
		}
	}
	for _, bop := range badOperating {
		if pr, err := WeibullLRD(LRDParams{H: 0.9, G: 1, Mu: 500, Sigma2: 5000}, bop); err == nil {
			t.Errorf("operating point %+v: expected error, got %v", bop, pr)
		}
	}
}

func TestKappa(t *testing.T) {
	if got := Kappa(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("κ(0.5) = %v, want 0.5", got)
	}
	// κ is maximised at the endpoints (→1) and equals H^H(1−H)^{1−H}.
	if got, want := Kappa(0.9), math.Pow(0.9, 0.9)*math.Pow(0.1, 0.1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("κ(0.9) = %v, want %v", got, want)
	}
}

func TestBufferConversionsRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		b := math.Abs(math.Mod(raw, 1e4))
		c, ts := 538.0, 0.04
		d := BufferCellsToSeconds(b, c, ts)
		return math.Abs(BufferSecondsToCells(d, c, ts)-b) < 1e-9*(1+b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// 20 ms at c = 538 cells/frame, Ts = 40 ms: 269 cells per source.
	if got := BufferSecondsToCells(0.020, 538, 0.04); math.Abs(got-269) > 1e-9 {
		t.Fatalf("20 ms = %v cells, want 269", got)
	}
}

func BenchmarkCTSZModel(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	op := Operating{C: 538, B: 200, N: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CTS(z, op, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: for random DAR(2) models and increasing buffers, the CTS is
// non-decreasing and the rate function non-increasing in b.
func TestCTSMonotoneProperty(t *testing.T) {
	f := func(rhoRaw, aRaw float64, bRaw uint16) bool {
		rho := 0.05 + 0.9*math.Abs(math.Mod(rhoRaw, 1))
		a1 := math.Abs(math.Mod(aRaw, 1))
		p, err := dar.New(rho, []float64{a1, 1 - a1}, dar.GaussianMarginal(500, 5000))
		if err != nil {
			return false
		}
		b := float64(bRaw % 1000)
		op1 := Operating{C: 538, B: b, N: 30}
		op2 := Operating{C: 538, B: b + 50, N: 30}
		r1, err := CTS(p, op1, 0)
		if err != nil {
			return false
		}
		r2, err := CTS(p, op2, 0)
		if err != nil {
			return false
		}
		return r2.M >= r1.M && r2.Rate >= r1.Rate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The CTS machinery must also cope with non-monotone ACFs (the MPEG GOP
// ripple): finite result, m*_0 = 1, sane growth.
func TestCTSNonMonotoneACF(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	w, err := models.GOPWeights(models.TypicalGOP, 5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := models.NewMPEG(z, w)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := CTS(mp, Operating{C: 538, B: 0, N: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.M != 1 {
		t.Fatalf("m*_0 = %d, want 1", r0.M)
	}
	r, err := CTS(mp, Operating{C: 538, B: 500, N: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.M < 1 || r.M > 50000 {
		t.Fatalf("implausible CTS %d for periodic ACF", r.M)
	}
}
