package cellsim

import (
	"math"
	"testing"

	"repro/internal/dar"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/traffic"
)

// constModel emits a constant frame size.
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

func TestValidate(t *testing.T) {
	m := constModel{10}
	good := Config{Model: m, N: 1, SlotsPerFrame: 20, BufferCells: 5, Frames: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 1, SlotsPerFrame: 20, BufferCells: 5, Frames: 10},
		{Model: m, N: 0, SlotsPerFrame: 20, BufferCells: 5, Frames: 10},
		{Model: m, N: 1, SlotsPerFrame: 0, BufferCells: 5, Frames: 10},
		{Model: m, N: 1, SlotsPerFrame: 20, BufferCells: -1, Frames: 10},
		{Model: m, N: 1, SlotsPerFrame: 20, BufferCells: 5, Frames: 0},
		{Model: m, N: 1, SlotsPerFrame: 20, BufferCells: 5, Frames: 10, Warmup: -1},
	}
	for i, c := range bad {
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUnderloadNoLoss(t *testing.T) {
	// 5 sources × 10 cells/frame into 60 slots: even with aligned phases,
	// at most 5 cells arrive per slot and the queue drains between bursts;
	// a modest buffer suffices for zero loss.
	res, err := Run(Config{
		Model: constModel{10}, N: 5, SlotsPerFrame: 60,
		BufferCells: 10, Frames: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostCells != 0 {
		t.Fatalf("lost %d cells in underload", res.LostCells)
	}
	if res.ArrivedCells != 5*10*500 {
		t.Fatalf("arrived %d, want 25000", res.ArrivedCells)
	}
}

func TestOverloadLossRate(t *testing.T) {
	// One source emitting 30 cells/frame into 20 slots: 10 lost per frame
	// once the (tiny) buffer saturates.
	res, err := Run(Config{
		Model: constModel{30}, N: 1, SlotsPerFrame: 20,
		BufferCells: 2, Frames: 1000, Warmup: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCLR := 10.0 / 30.0
	if math.Abs(res.CLR-wantCLR) > 0.01 {
		t.Fatalf("CLR %v, want ≈%v", res.CLR, wantCLR)
	}
}

func TestFractionalCellsPreserveMean(t *testing.T) {
	// 10.5 cells/frame must average to 10.5 via the carry, not truncate.
	res, err := Run(Config{
		Model: constModel{10.5}, N: 1, SlotsPerFrame: 40,
		BufferCells: 50, Frames: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.ArrivedCells) / 2000; math.Abs(got-10.5) > 0.01 {
		t.Fatalf("mean cells/frame %v, want 10.5", got)
	}
}

func TestSaturatingSourceHandled(t *testing.T) {
	// A single source exceeding the link's slots per frame must not panic
	// and must lose the sustained excess.
	res, err := Run(Config{
		Model: constModel{50}, N: 1, SlotsPerFrame: 20,
		BufferCells: 4, Frames: 200, Warmup: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.CLR, 30.0/50.0; math.Abs(got-want) > 0.02 {
		t.Fatalf("CLR %v, want ≈%v", got, want)
	}
}

func TestAgreesWithFluidModel(t *testing.T) {
	t.Parallel()
	// The central cross-check: at the paper's operating point the
	// cell-granular CLR must match the fluid Lindley CLR within cell-
	// quantisation effects (same seeds, same arrival statistics).
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	const (
		n      = 10
		c      = 515.0
		bCells = 20.0 // per source
		frames = 40000
	)
	fluid, err := mux.Run(mux.Config{
		Model: z, N: n, C: c, B: bCells, Frames: frames, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := Run(Config{
		Model: z, N: n, SlotsPerFrame: int(c) * n,
		BufferCells: int(bCells) * n, Frames: frames, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fluid.CLR <= 0 || cell.CLR <= 0 {
		t.Fatalf("expected observable loss: fluid %v cell %v", fluid.CLR, cell.CLR)
	}
	if ratio := cell.CLR / fluid.CLR; ratio < 0.5 || ratio > 2 {
		t.Fatalf("cell-level CLR %v vs fluid %v: ratio %v", cell.CLR, fluid.CLR, ratio)
	}
}

func TestIIDGaussianZeroBufferNearFluid(t *testing.T) {
	t.Parallel()
	p, err := dar.NewDAR1(0, dar.GaussianMarginal(500, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// Buffer of a handful of cells ~ zero buffer in fluid terms.
	res, err := Run(Config{
		Model: p, N: 30, SlotsPerFrame: 538 * 30,
		BufferCells: 30, Frames: 60000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CLR <= 0 || res.CLR > 1e-3 {
		t.Fatalf("CLR %v implausible for near-zero buffer at 93%% load", res.CLR)
	}
}

func TestReproducible(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 3, SlotsPerFrame: 1600, BufferCells: 40, Frames: 2000, Seed: 9}
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
}

func BenchmarkCellLevelFrame(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Model: z, N: 10, SlotsPerFrame: 5150, BufferCells: 200, Frames: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
