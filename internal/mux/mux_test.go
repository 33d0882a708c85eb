package mux

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dar"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// constModel emits a constant frame size; queue dynamics are then exact.
type constModel struct{ size float64 }

func (c constModel) Name() string      { return "const" }
func (c constModel) Mean() float64     { return c.size }
func (c constModel) Variance() float64 { return 0 }
func (c constModel) ACF(k int) float64 {
	if k == 0 {
		return 1
	}
	return 0
}
func (c constModel) NewGenerator(seed int64) traffic.Generator {
	return traffic.GeneratorFunc(func() float64 { return c.size })
}

// iidGaussian yields an uncorrelated Gaussian frame process via DAR(1) with
// ρ = 0.
func iidGaussian(t testing.TB, mean, variance float64) traffic.Model {
	t.Helper()
	p, err := dar.NewDAR1(0, dar.GaussianMarginal(mean, variance))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	m := constModel{1}
	good := Config{Model: m, N: 2, C: 2, B: 1, Frames: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Model: nil, N: 2, C: 2, B: 1, Frames: 10},
		{Model: m, N: 0, C: 2, B: 1, Frames: 10},
		{Model: m, N: 2, C: 0, B: 1, Frames: 10},
		{Model: m, N: 2, C: 2, B: -1, Frames: 10},
		{Model: m, N: 2, C: 2, B: 1, Frames: 0},
		{Model: m, N: 2, C: 2, B: 1, Frames: 10, Warmup: -1},
		// NaN passes a bare c <= 0 or b < 0 check and silently simulates
		// zero loss; ±Inf is no bandwidth or buffer either.
		{Model: m, N: 2, C: math.NaN(), B: 1, Frames: 10},
		{Model: m, N: 2, C: math.Inf(1), B: 1, Frames: 10},
		{Model: m, N: 2, C: 2, B: math.NaN(), Frames: 10},
		{Model: m, N: 2, C: 2, B: math.Inf(1), Frames: 10},
		{Model: m, N: 2, C: 2, B: math.Inf(-1), Frames: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunConstantUnderload(t *testing.T) {
	// Constant arrivals below capacity: no loss, empty queue.
	res, err := Run(Config{Model: constModel{10}, N: 5, C: 11, B: 100, Frames: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostCells != 0 || res.CLR != 0 {
		t.Fatalf("unexpected loss %v", res.LostCells)
	}
	if res.MaxWorkload != 0 {
		t.Fatalf("queue should stay empty, max %v", res.MaxWorkload)
	}
	if res.ArrivedCells != 10*5*1000 {
		t.Fatalf("arrivals %v, want 50000", res.ArrivedCells)
	}
}

func TestRunConstantOverloadLosesExactly(t *testing.T) {
	// Arrivals exceed capacity by exactly 5 cells/frame with a 30-cell
	// total buffer: after the buffer fills (6 frames), every frame loses 5.
	res, err := Run(Config{Model: constModel{11}, N: 5, C: 10, B: 6, Frames: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Total surplus = 5 cells/frame × 100 = 500; buffer holds 30.
	want := 500.0 - 30.0
	if math.Abs(res.LostCells-want) > 1e-9 {
		t.Fatalf("lost %v, want %v", res.LostCells, want)
	}
	if math.Abs(res.MaxWorkload-30) > 1e-9 {
		t.Fatalf("max workload %v, want 30", res.MaxWorkload)
	}
}

func TestRunConservation(t *testing.T) {
	// Arrivals − losses − drained = ΔW, where drained ≤ C per frame. We
	// verify the weaker invariant that total loss never exceeds total
	// arrivals and the workload stays within [0, B].
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Model: z, N: 10, C: 520, B: 50, Frames: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostCells < 0 || res.LostCells > res.ArrivedCells {
		t.Fatalf("loss %v outside [0, arrivals %v]", res.LostCells, res.ArrivedCells)
	}
	if res.MaxWorkload > 10*50+1e-9 {
		t.Fatalf("workload %v exceeded buffer", res.MaxWorkload)
	}
	if res.CLR != res.LostCells/res.ArrivedCells {
		t.Fatal("CLR inconsistent")
	}
}

func TestZeroBufferCLRMatchesGaussianLoss(t *testing.T) {
	// At B = 0 the fluid CLR is E[(A−C)^+]/E[A] exactly; with iid Gaussian
	// frames the numerator has the closed form σ_N·L((C−μ_N)/σ_N).
	m := iidGaussian(t, 500, 5000)
	n := 30
	c := 520.0
	cfg := Config{Model: m, N: n, C: c, B: 0, Frames: 400000, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	muN := 500.0 * float64(n)
	sigmaN := math.Sqrt(5000 * float64(n))
	z := (c*float64(n) - muN) / sigmaN
	want := sigmaN * stats.NormalLoss(z) / muN
	if math.Abs(res.CLR-want)/want > 0.15 {
		t.Fatalf("CLR = %v, Gaussian fluid value %v", res.CLR, want)
	}
}

func TestLossDecreasesWithBuffer(t *testing.T) {
	// Path-wise (same seed), a larger buffer never loses more cells.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Model: z, N: 10, C: 515, Frames: 30000, Seed: 11}
	prev := math.Inf(1)
	for _, b := range []float64{0, 10, 40, 160} {
		cfg := base
		cfg.B = b
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.LostCells > prev {
			t.Fatalf("loss increased with buffer at b=%v: %v > %v", b, res.LostCells, prev)
		}
		prev = res.LostCells
	}
}

func TestRunReproducible(t *testing.T) {
	z, err := models.NewZ(0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 5, C: 520, B: 20, Frames: 5000, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical results")
	}
}

func TestWarmupDiscardsTransient(t *testing.T) {
	// With warmup, the initial workload at measurement start may be > 0.
	m := constModel{12}
	res, err := Run(Config{Model: m, N: 1, C: 10, B: 100, Frames: 10, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialW != 10 { // 5 warm-up frames × surplus 2
		t.Fatalf("initial workload %v, want 10", res.InitialW)
	}
}

func TestRunReplications(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 5, C: 515, B: 10, Frames: 4000, Seed: 1}
	results, err := RunReplications(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	distinct := false
	for i := 1; i < len(results); i++ {
		if results[i].CLR != results[0].CLR {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("replications are not independent")
	}
	ci := CLREstimate(results, 0.95)
	if ci.NumObs != 5 || ci.Point < 0 {
		t.Fatalf("bad CI %+v", ci)
	}
	if _, err := RunReplications(cfg, 0); err == nil {
		t.Fatal("reps = 0 should error")
	}
}

// Property: for any stable constant-rate configuration, the fluid queue
// workload after n frames equals min(n·surplus, B) when surplus > 0.
func TestConstantRateWorkloadProperty(t *testing.T) {
	f := func(rate uint8, cap8 uint8, buf8 uint8) bool {
		a := float64(rate%50) + 51 // 51..100
		c := float64(cap8%50) + 1  // 1..50 (always overloaded)
		b := float64(buf8 % 200)
		frames := 37
		res, err := Run(Config{Model: constModel{a}, N: 1, C: c, B: b, Frames: frames})
		if err != nil {
			return false
		}
		surplus := a - c
		wantLost := math.Max(float64(frames)*surplus-b, 0)
		return math.Abs(res.LostCells-wantLost) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBOPConfigValidate(t *testing.T) {
	m := constModel{1}
	good := BOPConfig{Model: m, N: 1, C: 2, Frames: 10, Thresholds: []float64{1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BOPConfig{
		{Model: nil, N: 1, C: 2, Frames: 10, Thresholds: []float64{1}},
		{Model: m, N: 0, C: 2, Frames: 10, Thresholds: []float64{1}},
		{Model: m, N: 1, C: 2, Frames: 10},
		{Model: m, N: 1, C: 2, Frames: 10, Thresholds: []float64{-1}},
		{Model: m, N: 1, C: math.NaN(), Frames: 10, Thresholds: []float64{1}},
		{Model: m, N: 1, C: math.Inf(1), Frames: 10, Thresholds: []float64{1}},
		{Model: m, N: 1, C: 2, Frames: 10, Thresholds: []float64{math.NaN()}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunBOPMonotoneTail(t *testing.T) {
	m := iidGaussian(t, 500, 5000)
	res, err := RunBOP(BOPConfig{
		Model: m, N: 10, C: 510, Frames: 200000, Seed: 5,
		Thresholds: []float64{0, 100, 300, 600, 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Prob); i++ {
		if res.Prob[i] > res.Prob[i-1] {
			t.Fatalf("tail not monotone: %v", res.Prob)
		}
	}
	if res.Prob[0] <= 0 {
		t.Fatal("P(W > 0) should be positive at 98% utilisation")
	}
	if res.MaxW <= 0 {
		t.Fatal("max workload should be positive")
	}
}

// TestRunBOPUnsortedThresholdsHandled holds RunBOP to the caller's
// threshold order: Thresholds and Prob come back as given, each
// probability the one an ascending request reports for its threshold.
func TestRunBOPUnsortedThresholdsHandled(t *testing.T) {
	m := iidGaussian(t, 500, 5000)
	cfg := BOPConfig{Model: m, N: 5, C: 510, Frames: 50000, Seed: 9,
		Thresholds: []float64{500, 0, 100, 0}}
	res, err := RunBOP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Thresholds = []float64{0, 100, 500}
	asc, err := RunBOP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := BOPResult{
		Thresholds: []float64{500, 0, 100, 0},
		Prob:       []float64{asc.Prob[2], asc.Prob[0], asc.Prob[1], asc.Prob[0]},
		MaxW:       asc.MaxW,
	}
	checkBOP(t, res, want)
	if !(asc.Prob[0] > asc.Prob[1] && asc.Prob[1] > asc.Prob[2]) {
		t.Fatalf("ascending thresholds give %v; want a strictly falling tail", asc.Prob)
	}
}

func TestRunBOPAgainstLindleyByHand(t *testing.T) {
	// Deterministic cross-check of the counting logic: a constant surplus
	// of 2 cells/frame walks the workload up 2, 4, 6, ... so after 100
	// frames P(W > 50) counted over frames = fraction of frames with
	// workload > 50 = (100 − 25)/100.
	res, err := RunBOP(BOPConfig{
		Model: constModel{12}, N: 1, C: 10, Frames: 100,
		Thresholds: []float64{50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Prob[0]-0.75) > 1e-12 {
		t.Fatalf("P(W > 50) = %v, want 0.75", res.Prob[0])
	}
}

func TestSourceGeneratorsIndependentSeeds(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := sourceGenerators(z, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := traffic.Generate(gens[0], 50)
	b := traffic.Generate(gens[1], 50)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct sources produced identical paths")
	}
	_ = rand.New(rand.NewSource(1)) // keep math/rand imported meaningfully
}

func BenchmarkRunZ30Sources(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Model: z, N: 30, C: 538, B: 100, Frames: 2000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
