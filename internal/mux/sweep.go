package mux

import (
	"context"
	"fmt"

	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// RunSweep measures the finite-buffer CLR at several buffer sizes in a
// single pass: the same aggregate arrival sample path drives one Lindley
// recursion per buffer size. This is both much cheaper than independent
// runs (arrival generation dominates) and statistically sharper, since the
// buffer curves are positively coupled exactly as in the paper's plots.
//
// Closed-loop models (traffic.ClosedLoopModel) share the pass too: their
// open-loop base path is drawn once, and each buffer size scales it by its
// own controllers, fed back from its own recursion. Each buffer's results
// equal a separate Run at that buffer with the same seed, bit for bit.
//
// cfg.B is ignored; buffersCells lists per-source buffer allocations b
// (total buffer N·b each). Results[j] is the run at buffersCells[j], in
// the caller's order; Run is the one-buffer case.
func RunSweep(cfg Config, buffersCells []float64) ([]Result, error) {
	cfg.B = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(buffersCells) == 0 {
		return nil, fmt.Errorf("mux: empty buffer sweep")
	}
	totalB := make([]float64, len(buffersCells))
	for j, b := range buffersCells {
		if !nonNegative(b) {
			return nil, fmt.Errorf("mux: buffer %v in sweep must be non-negative and finite", b)
		}
		totalB[j] = float64(cfg.N) * b
	}
	src, err := newSources(cfg.Model, cfg.N, cfg.Seed, len(totalB), cfg.Span)
	if err != nil {
		return nil, err
	}
	defer src.release()
	var results []Result
	src.measure(cfg.Ctx, func(context.Context) {
		results = drainCLR(src, float64(cfg.N)*cfg.C, totalB, cfg.Warmup, cfg.Frames, cfg.Span)
	})
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
// The fingerprint covers every parameter that affects results, the
// model's draw version included, so that checkpoint entries from a
// different configuration or an older draw order are never replayed.
//
// A closed-loop sweep draws its replication seeds under the job ID of
// per-buffer replications ("mux/clr/"), so each of its buffers reproduces
// RunReplicationsEngine at that buffer. Its checkpoint entries hold one
// []Result per replication, so its fingerprint differs from both the
// open-loop sweep's and the per-buffer job's.
func sweepSpec(cfg Config, buffersCells []float64, reps int) runner.Spec {
	id, kind := "mux/sweep/", "mux/sweep"
	if traffic.IsClosedLoopModel(cfg.Model) {
		id, kind = "mux/clr/", "mux/clr-sweep"
	}
	return runner.Spec{
		ID:         id + cfg.Model.Name(),
		Reps:       reps,
		MasterSeed: cfg.Seed,
		Fingerprint: fmt.Sprintf("%s|model=%s|draws=%s|N=%d|c=%g|frames=%d|warmup=%d|buffers=%v",
			kind, cfg.Model.Name(), traffic.DrawVersion(cfg.Model), cfg.N, cfg.C, cfg.Frames, cfg.Warmup, buffersCells),
	}
}

// SweepReplicationsEngine runs reps independent RunSweep passes on the
// engine's worker pool and returns results indexed [buffer][replication],
// buffers in the caller's order as RunSweep reports them. Replication i
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
