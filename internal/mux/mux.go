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
// Both runs are built on one stepped simulation core (Engine) around a
// single shared Lindley kernel (lindleyStep). Open-loop sources are
// drained in 4096-frame chunks exactly as the historical block pipeline
// did; when any source is closed-loop (traffic.FeedbackGenerator) the run
// advances frame-by-frame so the post-frame queue state can feed back
// into generation.
package mux

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/stats"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"

	"context"
)

// Profiling labels for the two execution paths, mirroring the
// mux_runs_total{path=...} counters: CPU samples inside the chunked
// drain loops carry path=chunked, the per-frame engine path=stepped.
var (
	profChunked = prof.Labels{Path: "chunked"}
	profStepped = prof.Labels{Path: "stepped"}
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
	// ForceStep drives the run through the per-frame stepped engine even
	// when every source is open-loop. Results are bit-identical to the
	// chunked fast path (the block contract makes sample paths invariant
	// under Fill partitioning); only the per-frame overhead differs. Used
	// by the equivalence tests and the engine benchmarks.
	ForceStep bool
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
// mutually independent.
//
// With only open-loop sources, arrivals are pulled in chunkFrames-sized
// blocks and the Lindley kernel runs over the contiguous aggregate slice;
// the sample path is bit-identical to the per-frame scalar protocol. With
// any closed-loop source the run steps frame-by-frame through the engine
// so queue state feeds back into generation.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	eng, err := newRunEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	defer eng.release()
	if eng.closedLoop() || cfg.ForceStep {
		var res Result
		prof.Do(cfg.Ctx, profStepped, func(context.Context) {
			res = runStepped(eng, cfg.Frames, cfg.Warmup, cfg.Span)
		})
		return res, nil
	}

	var res Result
	prof.Do(cfg.Ctx, profChunked, func(context.Context) {
		totalC := float64(cfg.N) * cfg.C
		totalB := float64(cfg.N) * cfg.B
		var w float64
		for rem := cfg.Warmup; rem > 0; {
			n := min(rem, chunkFrames)
			for _, a := range eng.nextChunk(n) {
				_, w = lindleyStep(w, a, totalC, totalB)
			}
			rem -= n
		}
		res = Result{Frames: cfg.Frames, InitialW: w}
		var sumW float64
		for rem := cfg.Frames; rem > 0; {
			n := min(rem, chunkFrames)
			chunk := eng.nextChunk(n)
			spDrain := cfg.Span.Child("mux drain", trace.Int("frames", n))
			stopDrain := metDrainTime.Start()
			for _, a := range chunk {
				res.ArrivedCells += a
				loss, next := lindleyStep(w, a, totalC, totalB)
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
			spDrain.End()
			metOccupancy.Observe(w)
			rem -= n
		}
		res.FinalW = w
		res.MeanWorkload = sumW / float64(cfg.Frames)
		if res.ArrivedCells > 0 {
			res.CLR = res.LostCells / res.ArrivedCells
		}
	})
	metRuns.Inc()
	metPathChunked.Inc()
	metCellsArrived.Add(res.ArrivedCells)
	metCellsLost.Add(res.LostCells)
	return res, nil
}

// ChildSeeds derives n per-source seeds from a master seed via the
// splitmix64 hash of (master, source index). The derivation is shared with
// package cellsim so fluid and cell-level simulations of the same
// configuration see statistically identical arrival processes, and it is
// index-addressed rather than stream-drawn so any subset of sources can be
// re-derived independently.
func ChildSeeds(masterSeed int64, n int) []int64 {
	return seed.Children(masterSeed, n)
}

// sourceGenerators builds N independent generators with seeds derived from
// a master seed. A model returning a nil generator (e.g. an unfitted or
// partially-constructed wrapper) is reported as an error rather than left
// to panic frames later inside the simulation loop.
func sourceGenerators(m traffic.Model, n int, sd int64) ([]traffic.Generator, error) {
	seeds := ChildSeeds(sd, n)
	gens := make([]traffic.Generator, n)
	for i := range gens {
		g := m.NewGenerator(seeds[i])
		if g == nil {
			return nil, fmt.Errorf("mux: model %q returned nil generator for source %d (seed %d)",
				m.Name(), i, seeds[i])
		}
		gens[i] = g
	}
	return gens, nil
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
// replication's own serial step loop.
//
// This is the replication fan-out for configurations that cannot share a
// coupled buffer sweep (closed-loop sources, where the queue state feeds
// back into generation and therefore depends on the buffer size).
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
		Fingerprint: fmt.Sprintf("mux/clr|model=%s|N=%d|c=%g|b=%g|frames=%d|warmup=%d",
			cfg.Model.Name(), cfg.N, cfg.C, cfg.B, cfg.Frames, cfg.Warmup),
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
	// ForceStep forces the per-frame stepped engine for open-loop sources;
	// see Config.ForceStep.
	ForceStep bool
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
	Prob       []float64 // P(W > threshold), fraction of measured frames
	MaxW       float64
}

// countThresholds bumps counts[k] for every sorted threshold thr[k]
// exceeded by workload w — shared by the chunked and stepped BOP loops.
func countThresholds(w float64, thr []float64, counts []int) {
	for j := len(thr) - 1; j >= 0; j-- {
		if w > thr[j] {
			for k := 0; k <= j; k++ {
				counts[k]++
			}
			break
		}
	}
}

// RunBOP simulates the infinite-buffer workload recursion and estimates
// P(W > x) at each threshold as the fraction of frame boundaries whose
// workload exceeds x. Closed-loop sources drop the run to the per-frame
// stepped engine (feedback carries Buffer = +Inf and zero loss — the
// congestion signal is utilization alone).
func RunBOP(cfg BOPConfig) (BOPResult, error) {
	if err := cfg.Validate(); err != nil {
		return BOPResult{}, err
	}
	thr := append([]float64(nil), cfg.Thresholds...)
	sort.Float64s(thr)
	eng, err := newBOPEngine(cfg, cfg.Span)
	if err != nil {
		return BOPResult{}, err
	}
	defer eng.release()
	counts := make([]int, len(thr))
	res := BOPResult{Thresholds: thr}

	if eng.closedLoop() || cfg.ForceStep {
		prof.Do(cfg.Ctx, profStepped, func(context.Context) {
			for i := 0; i < cfg.Warmup; i++ {
				eng.Step()
			}
			for rem := cfg.Frames; rem > 0; {
				n := min(rem, chunkFrames)
				sp := cfg.Span.Child("mux step", trace.Int("frames", n))
				stopDrain := metDrainTime.Start()
				for i := 0; i < n; i++ {
					st := eng.Step()
					if st.W > res.MaxW {
						res.MaxW = st.W
					}
					countThresholds(st.W, thr, counts)
				}
				stopDrain()
				sp.End()
				metOccupancy.Observe(eng.W())
				rem -= n
			}
		})
	} else {
		prof.Do(cfg.Ctx, profChunked, func(context.Context) {
			totalC := float64(cfg.N) * cfg.C
			inf := math.Inf(1)
			var w float64
			for rem := cfg.Warmup; rem > 0; {
				n := min(rem, chunkFrames)
				for _, a := range eng.nextChunk(n) {
					_, w = lindleyStep(w, a, totalC, inf)
				}
				rem -= n
			}
			for rem := cfg.Frames; rem > 0; {
				n := min(rem, chunkFrames)
				chunk := eng.nextChunk(n)
				spDrain := cfg.Span.Child("mux drain", trace.Int("frames", n))
				stopDrain := metDrainTime.Start()
				for _, a := range chunk {
					_, w = lindleyStep(w, a, totalC, inf)
					if w > res.MaxW {
						res.MaxW = w
					}
					countThresholds(w, thr, counts)
				}
				stopDrain()
				spDrain.End()
				metOccupancy.Observe(w)
				rem -= n
			}
		})
	}
	metRuns.Inc()
	metPathChunked.Inc()
	res.Prob = make([]float64, len(thr))
	for i, c := range counts {
		res.Prob[i] = float64(c) / float64(cfg.Frames)
	}
	return res, nil
}

// SampleWorkload runs the infinite-buffer workload recursion and returns
// every `every`-th frame-boundary workload (total cells), for studying the
// shape of the stationary queue distribution — e.g. distinguishing the
// Weibull body of LRD input from the exponential body of Markov input on
// a log-survival plot. The sampling stride must be ≥ 1; every < 1 is an
// error, never a silent full-rate or empty sample.
func SampleWorkload(cfg BOPConfig, every int) ([]float64, error) {
	if every < 1 {
		return nil, fmt.Errorf("mux: sampling stride %d must be ≥ 1", every)
	}
	// Thresholds are irrelevant here but Validate demands one.
	c := cfg
	c.Thresholds = []float64{0}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	eng, err := newBOPEngine(cfg, cfg.Span)
	if err != nil {
		return nil, err
	}
	defer eng.release()
	out := make([]float64, 0, cfg.Frames/every+1)

	if eng.closedLoop() || cfg.ForceStep {
		prof.Do(cfg.Ctx, profStepped, func(context.Context) {
			for i := 0; i < cfg.Warmup; i++ {
				eng.Step()
			}
			for frame := 0; frame < cfg.Frames; frame++ {
				st := eng.Step()
				if frame%every == 0 {
					out = append(out, st.W)
				}
			}
		})
		return out, nil
	}

	prof.Do(cfg.Ctx, profChunked, func(context.Context) {
		totalC := float64(cfg.N) * cfg.C
		inf := math.Inf(1)
		var w float64
		for rem := cfg.Warmup; rem > 0; {
			n := min(rem, chunkFrames)
			for _, a := range eng.nextChunk(n) {
				_, w = lindleyStep(w, a, totalC, inf)
			}
			rem -= n
		}
		frame := 0
		for rem := cfg.Frames; rem > 0; {
			n := min(rem, chunkFrames)
			for _, a := range eng.nextChunk(n) {
				_, w = lindleyStep(w, a, totalC, inf)
				if frame%every == 0 {
					out = append(out, w)
				}
				frame++
			}
			rem -= n
		}
	})
	return out, nil
}
