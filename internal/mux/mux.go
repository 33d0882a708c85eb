// Package mux simulates the paper's ATM multiplexer (§5.5): N homogeneous
// VBR video sources, frame-synchronised, with cells equispaced over each
// frame duration (deterministic smoothing) feeding a FIFO buffer drained at
// constant rate.
//
// Because arrivals and service are both fluid and uniform within a frame,
// the cell-level queue is captured exactly by a frame-level Lindley
// recursion with clipping:
//
//	loss_n = (W_n + A_n − C − B)^+
//	W_{n+1} = min((W_n + A_n − C)^+, B)
//
// where A_n is the aggregate frame volume (cells), C = N·c the service
// volume per frame, and B = N·b the total buffer. The finite-buffer run
// measures the cell loss rate CLR = Σ loss / Σ A; the infinite-buffer run
// measures the buffer overflow probability P(W > x) that the paper's
// large-deviations asymptotics estimate.
//
// Every measurement drains through one loop per measurement kind around a
// single shared Lindley kernel (lindleyStep): drainCLR for finite-buffer
// CLR (Run is the one-buffer case of RunSweep) and drainBOP for
// infinite-buffer overflow. Open-loop sources are pulled in 4096-frame
// chunks; only when a source is closed-loop does the drain add its
// per-frame draws and deliver the post-frame queue state back to it. A
// closed-loop model that splits into an open-loop base and controllers
// (traffic.ClosedLoopModel) has its base drawn once per frame for every
// buffer of a sweep, each buffer scaling it by its own controllers.
package mux

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config describes one finite-buffer simulation replication.
type Config struct {
	Model  traffic.Model
	N      int     // number of multiplexed sources
	C      float64 // bandwidth per source c, cells/frame
	B      float64 // buffer per source b, cells (total buffer N·b)
	Frames int     // simulated frames after warm-up
	Warmup int     // frames discarded before measurement
	Seed   int64
	// Span, when active, parents per-chunk "mux fill"/"mux drain" trace
	// spans. Purely observational (never part of seeds or fingerprints);
	// the zero Span disables chunk tracing at the cost of one branch.
	Span trace.Span
	// Ctx, when non-nil, carries pprof profiling labels (figure, model,
	// sweep point, lane — see internal/telemetry/prof) that Run merges
	// with its own path label, so CPU samples taken inside the simulation
	// loops attribute to experiment coordinates. Purely observational,
	// like Span: never part of seeds, fingerprints or results.
	Ctx context.Context
}

// positive and nonNegative report whether x lies in (0, ∞) or [0, ∞).
// NaN and +Inf fail both; a bare x <= 0 or x < 0 check lets NaN through.
func positive(x float64) bool    { return x > 0 && !math.IsInf(x, 1) }
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("mux: nil model")
	}
	if c.N < 1 {
		return fmt.Errorf("mux: N = %d must be ≥ 1", c.N)
	}
	if !positive(c.C) {
		return fmt.Errorf("mux: bandwidth c = %v must be positive and finite", c.C)
	}
	if !nonNegative(c.B) {
		return fmt.Errorf("mux: buffer b = %v must be non-negative and finite", c.B)
	}
	if c.Frames < 1 {
		return fmt.Errorf("mux: frames = %d must be ≥ 1", c.Frames)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("mux: warmup = %d must be non-negative", c.Warmup)
	}
	return nil
}

// Result summarises one finite-buffer replication.
type Result struct {
	Frames       int
	ArrivedCells float64
	LostCells    float64
	CLR          float64 // LostCells / ArrivedCells
	LossFrames   int     // frames during which any loss occurred
	MeanWorkload float64 // time-average workload, cells
	MaxWorkload  float64 // peak workload, cells
	FinalW       float64 // workload at measurement end (conservation checks)
	InitialW     float64 // workload at measurement start
}

// Run executes one finite-buffer replication. Source i uses a child seed
// derived from cfg.Seed, so replications are reproducible and sources
// mutually independent. Closed-loop sources see the queue state after
// every frame, warm-up included.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	src, err := newSources(cfg.Model, cfg.N, cfg.Seed, 1, cfg.Span)
	if err != nil {
		return Result{}, err
	}
	defer src.release()
	var res Result
	src.measure(cfg.Ctx, func(context.Context) {
		res = drainCLR(src, float64(cfg.N)*cfg.C, []float64{float64(cfg.N) * cfg.B},
			cfg.Warmup, cfg.Frames, cfg.Span)[0]
	})
	return res, nil
}

// RunReplications executes reps independent replications (the paper runs
// 60), deriving the seed of replication i as the splitmix64 hash of
// (cfg.Seed, "mux/reps", i) so any replication can be reproduced in
// isolation.
func RunReplications(cfg Config, reps int) ([]Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("mux: reps = %d must be ≥ 1", reps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]Result, reps)
	for i := range out {
		c := cfg
		c.Seed = seed.DeriveString(cfg.Seed, "mux/reps", uint64(i))
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// RunReplicationsEngine executes reps independent replications of Run on
// the orchestration engine's worker pool. Replication i always runs with
// the splitmix64-derived seed of (cfg.Seed, job, i), so the output is
// bit-identical for every worker count — including for closed-loop
// configurations, whose feedback dynamics are confined to each
// replication's own serial drain.
//
// A closed-loop model's replication i here equals, bit for bit, buffer
// cfg.B of SweepReplicationsEngine's replication i with the same seed, so
// a buffer grid of such a model is one sweep, not one batch per buffer.
func RunReplicationsEngine(ctx context.Context, eng *runner.Engine, cfg Config, reps int) ([]Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("mux: reps = %d must be ≥ 1", reps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := runner.Spec{
		ID:         "mux/clr/" + cfg.Model.Name(),
		Reps:       reps,
		MasterSeed: cfg.Seed,
		Fingerprint: fmt.Sprintf("mux/clr|model=%s|draws=%s|N=%d|c=%g|b=%g|frames=%d|warmup=%d",
			cfg.Model.Name(), traffic.DrawVersion(cfg.Model), cfg.N, cfg.C, cfg.B, cfg.Frames, cfg.Warmup),
	}
	return runner.Run(ctx, eng, spec, func(ctx context.Context, r runner.Rep) (Result, error) {
		c := cfg
		c.Seed = r.Seed
		c.Span = trace.FromContext(ctx)
		c.Ctx = ctx // carries the runner's lane label and the drivers' coordinates
		res, err := Run(c)
		if err != nil {
			return Result{}, err
		}
		r.AddUnits(int64(c.Frames))
		return res, nil
	})
}

// CLREstimate pools replication results into a ratio estimate of the cell
// loss rate with a replication confidence interval. An empty results slice
// yields the defined zero-value estimate (point 0, zero half-width,
// NumObs 0) rather than propagating NaNs into downstream figures.
func CLREstimate(results []Result, level float64) stats.CI {
	if len(results) == 0 {
		return stats.CI{Level: level}
	}
	clrs := make([]float64, len(results))
	for i, r := range results {
		clrs[i] = r.CLR
	}
	return stats.ReplicationCI(clrs, level)
}

// BOPConfig describes an infinite-buffer overflow probability measurement.
type BOPConfig struct {
	Model      traffic.Model
	N          int
	C          float64 // bandwidth per source, cells/frame
	Frames     int     // measured frames
	Warmup     int     // discarded frames
	Seed       int64
	Thresholds []float64 // workload levels x (total cells) for P(W > x)
	Span       trace.Span
	// Ctx carries pprof profiling labels; see Config.Ctx.
	Ctx context.Context
}

// Validate checks the configuration.
func (c BOPConfig) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("mux: nil model")
	}
	if c.N < 1 || !positive(c.C) || c.Frames < 1 || c.Warmup < 0 {
		return fmt.Errorf("mux: invalid BOP config N=%d c=%v frames=%d warmup=%d",
			c.N, c.C, c.Frames, c.Warmup)
	}
	if len(c.Thresholds) == 0 {
		return fmt.Errorf("mux: no thresholds")
	}
	for _, x := range c.Thresholds {
		if !nonNegative(x) {
			return fmt.Errorf("mux: threshold %v must be non-negative and finite", x)
		}
	}
	return nil
}

// BOPResult reports tail probabilities of the stationary workload.
type BOPResult struct {
	Thresholds []float64
	Prob       []float64 // P(W > Thresholds[i]), fraction of measured frames
	MaxW       float64
}

// RunBOP simulates the infinite-buffer workload recursion and estimates
// P(W > x) at each threshold as the fraction of measured frame boundaries
// whose workload exceeds x. The result lists the thresholds, and Prob, in
// the caller's order.
func RunBOP(cfg BOPConfig) (BOPResult, error) {
	if err := cfg.Validate(); err != nil {
		return BOPResult{}, err
	}
	// The drain counts against ascending thresholds.
	thr := append([]float64(nil), cfg.Thresholds...)
	sort.Float64s(thr)
	src, err := newSources(cfg.Model, cfg.N, cfg.Seed, 1, cfg.Span)
	if err != nil {
		return BOPResult{}, err
	}
	defer src.release()
	var sorted BOPResult
	src.measure(cfg.Ctx, func(context.Context) {
		sorted = drainBOP(src, float64(cfg.N)*cfg.C, thr, cfg.Warmup, cfg.Frames, cfg.Span)
	})
	res := BOPResult{
		Thresholds: append([]float64(nil), cfg.Thresholds...),
		Prob:       make([]float64, len(thr)),
		MaxW:       sorted.MaxW,
	}
	for i, x := range res.Thresholds {
		res.Prob[i] = sorted.Prob[sort.SearchFloat64s(thr, x)]
	}
	return res, nil
}
