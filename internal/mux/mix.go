package mux

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seed"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// MixConfig describes a heterogeneous finite-buffer simulation: several
// traffic classes sharing one link (total capacity and total buffer given
// directly in cells).
type MixConfig struct {
	Mix    core.Mix
	TotalC float64 // link capacity, cells/frame
	TotalB float64 // buffer, cells
	Frames int
	Warmup int
	Seed   int64
	// Span parents the run's trace spans; observational only.
	Span trace.Span
	// ForceStep forces the per-frame stepped engine for open-loop mixes;
	// see Config.ForceStep.
	ForceStep bool
}

// Validate checks the configuration.
func (c MixConfig) Validate() error {
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if !positive(c.TotalC) {
		return fmt.Errorf("mux: capacity %v must be positive and finite", c.TotalC)
	}
	if !nonNegative(c.TotalB) {
		return fmt.Errorf("mux: buffer %v must be non-negative and finite", c.TotalB)
	}
	if c.Frames < 1 || c.Warmup < 0 {
		return fmt.Errorf("mux: invalid horizon frames=%d warmup=%d", c.Frames, c.Warmup)
	}
	return nil
}

// RunMix executes one heterogeneous replication with the same fluid
// Lindley dynamics as Run. A mix may combine open- and closed-loop
// classes: when any component's generators tap the feedback loop the run
// steps frame-by-frame (open-loop components keep their chunked block
// fills inside the engine), otherwise the whole mix drains through the
// chunked fast path bit-identically to the historical block pipeline.
func RunMix(cfg MixConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Source k (counted across the whole mix) gets seed.Derive(Seed, k) —
	// the same derivation as ChildSeeds, so a homogeneous mix reproduces
	// Run exactly and each class sees the same seeds regardless of how
	// the mix is partitioned into components.
	var gens []traffic.Generator
	var k uint64
	for _, comp := range cfg.Mix {
		for i := 0; i < comp.Count; i++ {
			g := comp.Model.NewGenerator(seed.Derive(cfg.Seed, k))
			if g == nil {
				return Result{}, fmt.Errorf("mux: model %q returned nil generator for mix source %d",
					comp.Model.Name(), k)
			}
			gens = append(gens, g)
			k++
		}
	}
	eng := newEngine(gens, cfg.TotalC, cfg.TotalB, cfg.Span)
	defer eng.release()
	if eng.closedLoop() || cfg.ForceStep {
		return runStepped(eng, cfg.Frames, cfg.Warmup, cfg.Span), nil
	}

	var w float64
	for rem := cfg.Warmup; rem > 0; {
		n := min(rem, chunkFrames)
		for _, a := range eng.nextChunk(n) {
			_, w = lindleyStep(w, a, cfg.TotalC, cfg.TotalB)
		}
		rem -= n
	}
	res := Result{Frames: cfg.Frames, InitialW: w}
	var sumW float64
	for rem := cfg.Frames; rem > 0; {
		n := min(rem, chunkFrames)
		chunk := eng.nextChunk(n)
		stopDrain := metDrainTime.Start()
		for _, a := range chunk {
			res.ArrivedCells += a
			loss, next := lindleyStep(w, a, cfg.TotalC, cfg.TotalB)
			if loss > 0 {
				res.LostCells += loss
				res.LossFrames++
			}
			w = next
			sumW += w
			if w > res.MaxWorkload {
				res.MaxWorkload = w
			}
		}
		stopDrain()
		metOccupancy.Observe(w)
		rem -= n
	}
	res.FinalW = w
	res.MeanWorkload = sumW / float64(cfg.Frames)
	if res.ArrivedCells > 0 {
		res.CLR = res.LostCells / res.ArrivedCells
	}
	metRuns.Inc()
	metPathChunked.Inc()
	metCellsArrived.Add(res.ArrivedCells)
	metCellsLost.Add(res.LostCells)
	return res, nil
}
