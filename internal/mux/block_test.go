package mux

import (
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/traffic"
)

// goldenModels builds the paper's source families for the
// block/scalar equivalence tests: V^1 (intra-frame), Z^0.975 (composite
// LRD), S = DAR(2) fit of Z, L (long-term only), and the DAR(1) fit of Z
// that Fig 10 simulates.
func goldenModels(t *testing.T) []traffic.Model {
	t.Helper()
	v, err := models.NewV(1)
	if err != nil {
		t.Fatal(err)
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	s, err := models.FitS(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := models.NewL()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := models.FitS(z, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []traffic.Model{v, z, s, l, d1}
}

// TestRunBlockScalarGolden drives the same seed through the native block
// path and through traffic.ScalarModel (which hides every Fill and forces
// the per-frame fallback) and demands the full Result structs be equal —
// CLR, loss accounting, workload statistics, everything. The horizon
// spans several 4096-frame chunks plus a ragged tail so chunk boundaries
// are exercised.
func TestRunBlockScalarGolden(t *testing.T) {
	for _, m := range goldenModels(t) {
		cfg := Config{Model: m, N: 10, C: 538, B: 30, Frames: 9000, Warmup: 300, Seed: 42}
		native, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s native: %v", m.Name(), err)
		}
		cfg.Model = traffic.ScalarModel(m)
		scalar, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s scalar: %v", m.Name(), err)
		}
		if native != scalar {
			t.Fatalf("%s: block result %+v != scalar result %+v", m.Name(), native, scalar)
		}
		if native.ArrivedCells == 0 {
			t.Fatalf("%s: degenerate run, no arrivals", m.Name())
		}
	}
}

// TestRunSweepBlockScalarGolden repeats the equivalence check through the
// coupled buffer sweep.
func TestRunSweepBlockScalarGolden(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	buffers := []float64{0, 27, 134}
	cfg := Config{Model: z, N: 10, C: 538, Frames: 9000, Warmup: 300, Seed: 7}
	native, err := RunSweep(cfg, buffers)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = traffic.ScalarModel(z)
	scalar, err := RunSweep(cfg, buffers)
	if err != nil {
		t.Fatal(err)
	}
	for j := range native {
		if native[j] != scalar[j] {
			t.Fatalf("buffer %v: block %+v != scalar %+v", buffers[j], native[j], scalar[j])
		}
	}
}

// TestRunBOPBlockScalarGolden repeats the equivalence check through the
// infinite-buffer overflow estimator.
func TestRunBOPBlockScalarGolden(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BOPConfig{
		Model: z, N: 10, C: 538, Frames: 9000, Warmup: 300, Seed: 3,
		Thresholds: []float64{0, 100, 1000},
	}
	native, err := RunBOP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = traffic.ScalarModel(z)
	scalar, err := RunBOP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if native.MaxW != scalar.MaxW {
		t.Fatalf("MaxW %v != %v", native.MaxW, scalar.MaxW)
	}
	for i := range native.Prob {
		if native.Prob[i] != scalar.Prob[i] {
			t.Fatalf("P(W > %v): block %v != scalar %v",
				native.Thresholds[i], native.Prob[i], scalar.Prob[i])
		}
	}
}

// nilGenModel simulates a broken model whose NewGenerator returns nil.
type nilGenModel struct{ constModel }

func (nilGenModel) Name() string                              { return "nilgen" }
func (nilGenModel) NewGenerator(seed int64) traffic.Generator { return nil }

// TestNilGeneratorIsError asserts the satellite fix: a nil generator is a
// reported error from every entry point, not a panic frames later.
func TestNilGeneratorIsError(t *testing.T) {
	m := nilGenModel{constModel{1}}
	if _, err := Run(Config{Model: m, N: 2, C: 2, B: 1, Frames: 10}); err == nil ||
		!strings.Contains(err.Error(), "nil generator") {
		t.Fatalf("Run: want nil-generator error, got %v", err)
	}
	if _, err := RunSweep(Config{Model: m, N: 2, C: 2, Frames: 10}, []float64{0, 1}); err == nil {
		t.Fatal("RunSweep: want nil-generator error")
	}
	if _, err := RunBOP(BOPConfig{Model: m, N: 2, C: 2, Frames: 10, Thresholds: []float64{0}}); err == nil {
		t.Fatal("RunBOP: want nil-generator error")
	}
}

// TestReplayBlockScalarGolden covers the trace-replay model (the
// benchmark workload) through the same equivalence gate.
func TestReplayBlockScalarGolden(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	trace := traffic.Generate(z.NewGenerator(11), 5000)
	rep, err := traffic.NewReplay("trace", trace)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: rep, N: 10, C: 538, B: 30, Frames: 9000, Warmup: 300, Seed: 5}
	native, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = traffic.ScalarModel(rep)
	scalar, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if native != scalar {
		t.Fatalf("replay: block result %+v != scalar result %+v", native, scalar)
	}
}
