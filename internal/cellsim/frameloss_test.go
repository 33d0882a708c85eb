package cellsim

import (
	"math"
	"testing"

	"repro/internal/models"
)

func TestFrameLossValidation(t *testing.T) {
	if _, err := RunFrameLoss(Config{}); err == nil {
		t.Error("invalid config should error")
	}
	cfg := Config{
		Model: constModel{10}, N: 256, SlotsPerFrame: 10,
		BufferCells: 1, Frames: 1,
	}
	if _, err := RunFrameLoss(cfg); err == nil {
		t.Error("N > 255 should error")
	}
}

func TestFrameLossNoLossUnderload(t *testing.T) {
	res, err := RunFrameLoss(Config{
		Model: constModel{10}, N: 5, SlotsPerFrame: 60,
		BufferCells: 10, Frames: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostCells != 0 || res.DamagedFrames != 0 || res.FLR != 0 {
		t.Fatalf("unexpected loss: %+v", res)
	}
	if res.SourceFrames != 5*400 {
		t.Fatalf("source frames %d, want 2000", res.SourceFrames)
	}
}

func TestFrameLossMatchesCellRunCounts(t *testing.T) {
	t.Parallel()
	// Same configuration and seed: RunFrameLoss must reproduce Run's
	// cell-level accounting exactly (same arrival stream, same queue
	// discipline).
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model: z, N: 10, SlotsPerFrame: 5150,
		BufferCells: 200, Frames: 15000, Seed: 8,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := RunFrameLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ArrivedCells != fl.ArrivedCells {
		t.Fatalf("arrivals differ: %d vs %d", plain.ArrivedCells, fl.ArrivedCells)
	}
	if plain.LostCells != fl.LostCells {
		t.Fatalf("losses differ: %d vs %d", plain.LostCells, fl.LostCells)
	}
}

func TestFrameLossAmplification(t *testing.T) {
	t.Parallel()
	// The headline QOS fact: the frame damage ratio exceeds the cell loss
	// ratio by far, bounded by cells-per-frame.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFrameLoss(Config{
		Model: z, N: 10, SlotsPerFrame: 5150,
		BufferCells: 100, Frames: 30000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CLR <= 0 {
		t.Fatal("expected observable cell loss")
	}
	if res.FLR <= res.CLR {
		t.Fatalf("FLR %v should exceed CLR %v", res.FLR, res.CLR)
	}
	// Amplification cannot exceed the mean cells per frame (≈500) and for
	// clustered losses is typically far below it.
	if res.FLR > res.CLR*600 {
		t.Fatalf("amplification %v implausibly high", res.FLR/res.CLR)
	}
}

func TestFrameLossDropAttributionConserved(t *testing.T) {
	// Every damaged frame stems from ≥1 lost cell, and no more frames can
	// be damaged per video frame than there are sources.
	res, err := RunFrameLoss(Config{
		Model: constModel{30}, N: 2, SlotsPerFrame: 40,
		BufferCells: 2, Frames: 100, Warmup: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostCells == 0 {
		t.Fatal("overload must lose cells")
	}
	if res.DamagedFrames > res.SourceFrames {
		t.Fatalf("damaged %d > offered %d", res.DamagedFrames, res.SourceFrames)
	}
	if res.DamagedFrames == 0 {
		t.Fatal("lost cells must damage frames")
	}
	if math.Abs(res.FLR-float64(res.DamagedFrames)/float64(res.SourceFrames)) > 1e-15 {
		t.Fatal("FLR inconsistent")
	}
}

func TestFrameLossReproducible(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 3, SlotsPerFrame: 1600, BufferCells: 30, Frames: 3000, Seed: 2}
	a, err := RunFrameLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFrameLoss(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same-seed runs differ")
	}
}
