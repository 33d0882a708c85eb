// Package cellsim simulates the ATM multiplexer at cell granularity: a
// slotted link serving exactly one 53-byte cell per slot, fed by N video
// sources whose frames are segmented into cells equispaced over the frame
// duration (the paper's deterministic smoothing, §5.5), with a finite
// buffer counted in whole cells.
//
// Package mux models the same system as fluid, which is exact in the limit
// of infinitesimal cells; this package keeps cell integrality and slot
// phasing, so comparing the two quantifies the fluid approximation error
// the analysis rests on. The queue convention per slot: one departure (if
// any cell is queued) at the slot boundary, then the slot's arrivals join;
// arrivals finding the buffer full are dropped.
package cellsim

import (
	"fmt"

	"repro/internal/seed"
	"repro/internal/traffic"
)

// Config describes one cell-level simulation run.
type Config struct {
	Model traffic.Model
	N     int // number of multiplexed sources
	// SlotsPerFrame is the link capacity in cells per frame duration
	// (total C = N·c of the fluid model, as an integer cell count).
	SlotsPerFrame int
	// BufferCells is the queue capacity in cells, including the cell in
	// service.
	BufferCells int
	Frames      int
	Warmup      int
	Seed        int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("cellsim: nil model")
	}
	if c.N < 1 {
		return fmt.Errorf("cellsim: N = %d must be ≥ 1", c.N)
	}
	if c.SlotsPerFrame < 1 {
		return fmt.Errorf("cellsim: slots/frame = %d must be ≥ 1", c.SlotsPerFrame)
	}
	if c.BufferCells < 0 {
		return fmt.Errorf("cellsim: buffer = %d must be non-negative", c.BufferCells)
	}
	if c.Frames < 1 {
		return fmt.Errorf("cellsim: frames = %d must be ≥ 1", c.Frames)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("cellsim: warmup = %d must be non-negative", c.Warmup)
	}
	return nil
}

// Result summarises a run.
type Result struct {
	Frames       int
	ArrivedCells int64
	LostCells    int64
	CLR          float64
	MaxQueue     int // peak queue length in cells
	FinalQueue   int
}

// source tracks one video source's cell emission state.
type source struct {
	gen   traffic.Generator
	carry float64 // fractional-cell residue, dithered across frames
}

// cellsThisFrame converts the generator's (possibly fractional) frame size
// to a whole cell count, carrying the fraction forward so the long-run
// mean is preserved exactly.
func (s *source) cellsThisFrame() int {
	f := s.gen.NextFrame()
	if f < 0 {
		f = 0
	}
	f += s.carry
	n := int(f)
	s.carry = f - float64(n)
	return n
}

// Run executes the slotted simulation.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	srcs := make([]source, cfg.N)
	// Child seeds per source, derived as in package mux so cross-package
	// comparisons can share arrival statistics.
	seeds := seed.Children(cfg.Seed, cfg.N)
	for i := range srcs {
		srcs[i].gen = cfg.Model.NewGenerator(seeds[i])
	}

	slots := make([]int32, cfg.SlotsPerFrame)
	var (
		res   Result
		queue int
	)
	res.Frames = cfg.Frames
	total := cfg.Warmup + cfg.Frames
	for frame := 0; frame < total; frame++ {
		measuring := frame >= cfg.Warmup
		for i := range slots {
			slots[i] = 0
		}
		// Equispaced segmentation: cell k of F lands in slot ⌊k·S/F⌋.
		for i := range srcs {
			f := srcs[i].cellsThisFrame()
			if f <= 0 {
				continue
			}
			if f >= cfg.SlotsPerFrame {
				// Source alone saturates the link: spread one per slot,
				// excess piles into the final slot.
				for s := 0; s < cfg.SlotsPerFrame; s++ {
					slots[s]++
				}
				slots[cfg.SlotsPerFrame-1] += int32(f - cfg.SlotsPerFrame)
				continue
			}
			for k := 0; k < f; k++ {
				slots[k*cfg.SlotsPerFrame/f]++
			}
		}
		for _, a := range slots {
			// Departure first, then arrivals.
			if queue > 0 {
				queue--
			}
			if a == 0 {
				continue
			}
			if measuring {
				res.ArrivedCells += int64(a)
			}
			queue += int(a)
			if queue > cfg.BufferCells {
				lost := queue - cfg.BufferCells
				queue = cfg.BufferCells
				if measuring {
					res.LostCells += int64(lost)
				}
			}
			if measuring && queue > res.MaxQueue {
				res.MaxQueue = queue
			}
		}
	}
	res.FinalQueue = queue
	if res.ArrivedCells > 0 {
		res.CLR = float64(res.LostCells) / float64(res.ArrivedCells)
	}
	return res, nil
}
