package mux

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// RunSweep measures the finite-buffer CLR at several buffer sizes in a
// single pass: the same aggregate arrival sample path drives one Lindley
// recursion per buffer size. This is both much cheaper than independent
// runs (arrival generation dominates) and statistically sharper, since the
// buffer curves are positively coupled exactly as in the paper's plots.
//
// cfg.B is ignored; buffersCells lists per-source buffer allocations b
// (total buffer N·b each). Results are returned in ascending buffer order.
func RunSweep(cfg Config, buffersCells []float64) ([]Result, error) {
	cfg.B = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(buffersCells) == 0 {
		return nil, fmt.Errorf("mux: empty buffer sweep")
	}
	bs := append([]float64(nil), buffersCells...)
	sort.Float64s(bs)
	for _, b := range bs {
		if !nonNegative(b) {
			return nil, fmt.Errorf("mux: buffer %v in sweep must be non-negative and finite", b)
		}
	}

	gens, err := sourceGenerators(cfg.Model, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// A coupled sweep shares one arrival sample path across every buffer
	// size — structurally impossible for closed-loop sources, whose
	// arrivals depend on the buffer through the feedback tap.
	for i, g := range gens {
		if traffic.IsClosedLoop(g) {
			return nil, fmt.Errorf("mux: model %q source %d is closed-loop; "+
				"feedback couples arrivals to the buffer size, so buffers cannot "+
				"share a sweep — run per-buffer replications (RunReplicationsEngine) instead",
				cfg.Model.Name(), i)
		}
	}
	ba := newBlockAggregator(gens)
	ba.span = cfg.Span
	defer ba.release()
	totalC := float64(cfg.N) * cfg.C
	totalB := make([]float64, len(bs))
	for i, b := range bs {
		totalB[i] = float64(cfg.N) * b
	}

	results := make([]Result, len(bs))
	// Coupled sweeps are chunked by construction (closed-loop sources were
	// rejected above), so the whole pass profiles as path=chunked.
	prof.Do(cfg.Ctx, profChunked, func(context.Context) {
		w := make([]float64, len(bs))
		for rem := cfg.Warmup; rem > 0; {
			n := min(rem, chunkFrames)
			for _, a := range ba.next(n) {
				for j := range w {
					_, w[j] = lindleyStep(w[j], a, totalC, totalB[j])
				}
			}
			rem -= n
		}
		for j := range results {
			results[j] = Result{Frames: cfg.Frames, InitialW: w[j]}
		}
		sumW := make([]float64, len(bs))
		for rem := cfg.Frames; rem > 0; {
			n := min(rem, chunkFrames)
			chunk := ba.next(n)
			spDrain := cfg.Span.Child("mux drain", trace.Int("frames", n))
			stopDrain := metDrainTime.Start()
			for _, a := range chunk {
				for j := range w {
					res := &results[j]
					res.ArrivedCells += a
					loss, next := lindleyStep(w[j], a, totalC, totalB[j])
					if loss > 0 {
						res.LostCells += loss
						res.LossFrames++
					}
					w[j] = next
					sumW[j] += w[j]
					if w[j] > res.MaxWorkload {
						res.MaxWorkload = w[j]
					}
				}
			}
			stopDrain()
			spDrain.End()
			// One occupancy sample per chunk, from the largest buffer in the
			// sweep — the recursion whose workload the asymptotics study.
			metOccupancy.Observe(w[len(w)-1])
			rem -= n
		}
		for j := range results {
			res := &results[j]
			res.FinalW = w[j]
			res.MeanWorkload = sumW[j] / float64(cfg.Frames)
			if res.ArrivedCells > 0 {
				res.CLR = res.LostCells / res.ArrivedCells
			}
		}
	})
	metRuns.Inc()
	metPathChunked.Inc()
	if len(results) > 0 {
		// Arrivals are shared across the coupled recursions; count them
		// once. Losses differ per buffer; count the largest buffer's.
		metCellsArrived.Add(results[0].ArrivedCells)
		metCellsLost.Add(results[len(results)-1].LostCells)
	}
	return results, nil
}

// SweepReplications runs reps independent RunSweep passes and returns
// results indexed [buffer][replication]. It is the serial path:
// equivalent to SweepReplicationsEngine on a 1-worker engine, and
// bit-identical to any parallel worker count since per-replication seeds
// are pure functions of (cfg.Seed, replication index).
func SweepReplications(cfg Config, buffersCells []float64, reps int) ([][]Result, error) {
	return SweepReplicationsEngine(context.Background(), runner.New(1), cfg, buffersCells, reps)
}

// sweepSpec describes the replication batch for the orchestration engine.
// The fingerprint covers every parameter that affects results so that
// checkpoint entries from a different configuration are never replayed.
func sweepSpec(cfg Config, buffersCells []float64, reps int) runner.Spec {
	return runner.Spec{
		ID:         "mux/sweep/" + cfg.Model.Name(),
		Reps:       reps,
		MasterSeed: cfg.Seed,
		Fingerprint: fmt.Sprintf("mux/sweep|model=%s|N=%d|c=%g|frames=%d|warmup=%d|buffers=%v",
			cfg.Model.Name(), cfg.N, cfg.C, cfg.Frames, cfg.Warmup, buffersCells),
	}
}

// SweepReplicationsEngine runs reps independent RunSweep passes on the
// engine's worker pool and returns results indexed [buffer][replication]
// (buffers in ascending order, as RunSweep reports them). Replication i
// always runs with the splitmix64-derived seed of (cfg.Seed, job, i), so
// the output is bit-identical for every worker count; the engine provides
// cancellation, progress counters and checkpoint/resume.
func SweepReplicationsEngine(ctx context.Context, eng *runner.Engine, cfg Config, buffersCells []float64, reps int) ([][]Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("mux: reps = %d must be ≥ 1", reps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	byRep, err := runner.Run(ctx, eng, sweepSpec(cfg, buffersCells, reps),
		func(ctx context.Context, r runner.Rep) ([]Result, error) {
			c := cfg
			c.Seed = r.Seed
			c.Span = trace.FromContext(ctx)
			c.Ctx = ctx // carries the runner's lane label and the drivers' coordinates
			res, err := RunSweep(c, buffersCells)
			if err != nil {
				return nil, err
			}
			r.AddUnits(int64(c.Frames))
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([][]Result, len(buffersCells))
	for j := range out {
		out[j] = make([]Result, reps)
		for rep, res := range byRep {
			out[j][rep] = res[j]
		}
	}
	return out, nil
}
