// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (go test -bench=.), plus ablation benchmarks for the
// design choices DESIGN.md calls out (generator throughput, CTS scan cost
// by ACF family, FGN synthesis scaling, multiplexer throughput).
//
// Simulation benchmarks run at a reduced scale per iteration; cmd/repro
// -reps/-frames reaches the paper's 60 × 500k effort when wanted.
package repro_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dar"
	"repro/internal/experiments"
	"repro/internal/fgn"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/traffic"
)

// benchSim is the per-iteration simulation scale for figure benchmarks —
// small enough that one iteration of the costliest figure (Fig 8, which
// includes the phase-change-heavy V^1.5 model) stays under a minute.
var benchSim = experiments.SimConfig{Reps: 1, Frames: 1500, Seed: 1}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1ACFFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2SamplePaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(500, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3ACFPanels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4CTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5BOP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Efficacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7WideRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SimCLR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim
		cfg.Seed += int64(i)
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9SimEfficacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim
		cfg.Seed += int64(i)
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Asymptotics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim
		cfg.Seed += int64(i)
		if _, err := experiments.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks -------------------------------------------------

// Generator throughput per model family (frames/op).
func benchGenerator(b *testing.B, m traffic.Model) {
	b.Helper()
	g := m.NewGenerator(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.NextFrame()
	}
}

func BenchmarkGenZ(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	benchGenerator(b, z)
}

func BenchmarkGenV(b *testing.B) {
	v, err := models.NewV(1)
	if err != nil {
		b.Fatal(err)
	}
	benchGenerator(b, v)
}

func BenchmarkGenL(b *testing.B) {
	l, err := models.NewL()
	if err != nil {
		b.Fatal(err)
	}
	benchGenerator(b, l)
}

func BenchmarkGenDAR3(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	s, err := models.FitS(z, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchGenerator(b, s)
}

func BenchmarkGenFGN(b *testing.B) {
	f, err := fgn.NewModel(0.9, 500, 5000)
	if err != nil {
		b.Fatal(err)
	}
	benchGenerator(b, f)
}

// CTS scan cost by ACF family at a 20 ms buffer.
func benchCTS(b *testing.B, m traffic.Model) {
	b.Helper()
	op := core.Operating{
		C: experiments.BopC,
		B: experiments.MsecToPerSourceCells(20, experiments.BopC),
		N: experiments.BopN,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CTS(m, op, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCTSMarkov(b *testing.B) {
	p, err := dar.NewDAR1(0.9, dar.GaussianMarginal(models.Mean, models.Variance))
	if err != nil {
		b.Fatal(err)
	}
	benchCTS(b, p)
}

func BenchmarkCTSCompositeLRD(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	benchCTS(b, z)
}

func BenchmarkCTSExactLRD(b *testing.B) {
	f, err := fgn.NewModel(0.9, models.Mean, models.Variance)
	if err != nil {
		b.Fatal(err)
	}
	benchCTS(b, f)
}

// FGN synthesis scaling in block length.
func BenchmarkFGNSynthesis(b *testing.B) {
	for _, blockLen := range []int{1 << 12, 1 << 14, 1 << 16} {
		b.Run(byteSize(blockLen), func(b *testing.B) {
			m, err := fgn.NewModel(0.9, 500, 5000)
			if err != nil {
				b.Fatal(err)
			}
			m.BlockLen = blockLen
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := m.NewGenerator(int64(i))
				_ = g.NextFrame() // forces one block synthesis
			}
		})
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1<<16:
		return "64k"
	case n >= 1<<14:
		return "16k"
	default:
		return "4k"
	}
}

// Serial-vs-parallel replication throughput through the orchestration
// engine. The workers=1 sub-benchmark is the legacy serial path; the
// workers=NumCPU sub-benchmark records the speedup the runner buys on this
// hardware (results are bit-identical between the two).
func BenchmarkSweepReplicationsParallel(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	buffers := []float64{0, 27, 134, 269}
	cfg := mux.Config{Model: z, N: 30, C: 538, Frames: 1000}
	// Enough replications to fill the pool even on wide machines; at
	// least 4 workers on the parallel leg so single-core CI still
	// exercises (and times) the concurrent path.
	par := runtime.NumCPU()
	if par < 4 {
		par = 4
	}
	reps := 2 * par
	for _, workers := range []int{1, par} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				_, err := mux.SweepReplicationsEngine(context.Background(),
					runner.New(workers), cfg, buffers, reps)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(reps*cfg.Frames)*float64(b.N)/b.Elapsed().Seconds(),
				"frames/sec")
		})
	}
}

// replayWorkload synthesises one FGN trace and wraps it as a replay
// model: the cheapest source the pipeline can drive, so the scalar/block
// benchmark pair below measures the multiplexer pull mechanism itself
// rather than a generator's arithmetic.
func replayWorkload(b *testing.B) *traffic.Replay {
	b.Helper()
	f, err := fgn.NewModel(0.9, 500, 5000)
	if err != nil {
		b.Fatal(err)
	}
	f.BlockLen = 1 << 16
	trace := traffic.Generate(f.NewGenerator(1), 1<<16)
	rep, err := traffic.NewReplay("fgn-trace", trace)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// benchMuxRun drives N=100 sources through mux.Run and reports aggregate
// source-frames/sec (N × frames per wall second).
func benchMuxRun(b *testing.B, m traffic.Model) {
	b.Helper()
	cfg := mux.Config{Model: m, N: 100, C: 526, B: 100, Frames: 20000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := mux.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.N)*float64(cfg.Frames)*float64(b.N)/b.Elapsed().Seconds(),
		"frames/sec")
}

// BenchmarkMuxRunScalar is the pre-refactor baseline: traffic.ScalarModel
// hides every native Fill, forcing one interface call per source per
// frame — the legacy aggregate() pull.
func BenchmarkMuxRunScalar(b *testing.B) {
	benchMuxRun(b, traffic.ScalarModel(replayWorkload(b)))
}

// BenchmarkMuxRunBlock is the same workload through the block-streaming
// pipeline (chunked fills, contiguous Lindley recursion). Results are
// bit-identical to the scalar run; only the throughput differs.
func BenchmarkMuxRunBlock(b *testing.B) {
	benchMuxRun(b, replayWorkload(b))
}

// BenchmarkMuxRunBlockFlight is BenchmarkMuxRunBlock with the flight
// recorder live on the process registry at its default 1 s cadence and a
// JSONL log sink attached — the exact `-flight` production configuration.
// The benchdiff baseline holds its throughput within 1% of the plain
// block run: the recorder only scrapes, the simulation never waits on it.
func BenchmarkMuxRunBlockFlight(b *testing.B) {
	rec, err := flight.Start(telemetry.Default, flight.Options{
		Path: filepath.Join(b.TempDir(), "flight.jsonl"),
		Tool: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Stop()
	benchMuxRun(b, replayWorkload(b))
}

// BenchmarkFlightSnapshot prices one recorder frame — a full registry
// scrape plus the delta-encoded log line — against a registry populated
// like a mid-run simulation: 40 counters, 10 gauges, and 10 histograms
// carrying a thousand observations each. One counter advances per
// iteration so every frame writes a real (non-empty) delta line.
func BenchmarkFlightSnapshot(b *testing.B) {
	reg := telemetry.NewRegistry()
	active := reg.Counter("bench_active_total")
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("bench_counter_%02d_total", i)).Add(int64(i))
	}
	for i := 0; i < 10; i++ {
		reg.Gauge(fmt.Sprintf("bench_gauge_%02d", i)).Set(float64(i))
		h := reg.Histogram(fmt.Sprintf("bench_hist_%02d", i))
		for j := 0; j < 1000; j++ {
			h.Observe(float64(j%97) + 0.5)
		}
	}
	rec, err := flight.Start(reg, flight.Options{
		Interval: time.Hour, // benchmark drives Record itself
		Path:     filepath.Join(b.TempDir(), "flight.jsonl"),
		Tool:     "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active.Inc()
		rec.Record()
	}
}

// BenchmarkEngineStepOpenLoop forces the same open-loop workload through
// the per-frame stepped engine (Config.ForceStep). Results are
// bit-identical to BenchmarkMuxRunBlock; the gap prices the per-frame
// bookkeeping the feedback tap costs when nothing is closed-loop, and
// the benchdiff gate holds the chunked fast path itself within 5% of the
// pre-engine baseline.
func BenchmarkEngineStepOpenLoop(b *testing.B) {
	m := replayWorkload(b)
	cfg := mux.Config{Model: m, N: 100, C: 526, B: 100, Frames: 20000, ForceStep: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := mux.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.N)*float64(cfg.Frames)*float64(b.N)/b.Elapsed().Seconds(),
		"frames/sec")
}

// BenchmarkEngineStepClosedLoop wraps the replay workload in the AIMD
// controller, so every frame draws per-source scalars, runs the shared
// Lindley kernel, and delivers feedback to all 100 sources — the full
// closed-loop price.
func BenchmarkEngineStepClosedLoop(b *testing.B) {
	m, err := models.NewAIMD(replayWorkload(b), models.AIMDConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := mux.Config{Model: m, N: 100, C: 526, B: 100, Frames: 20000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := mux.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.N)*float64(cfg.Frames)*float64(b.N)/b.Elapsed().Seconds(),
		"frames/sec")
}

// BenchmarkCTSSweep prices a full Fig-4-style buffer sweep against one
// model with a fresh moment cache per iteration — the cost of the cached
// V(m) path including the one-time ACF walk, across all grid points.
func BenchmarkCTSSweep(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := traffic.NewMoments(z)
		for _, msec := range experiments.BufferGridMsec {
			op := core.Operating{
				C: experiments.Fig4C,
				B: experiments.MsecToPerSourceCells(msec, experiments.Fig4C),
				N: experiments.Fig4N,
			}
			if _, err := core.CTSMoments(mo, op, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Multiplexer throughput: frames/sec through the coupled buffer sweep.
func BenchmarkMuxSweep(b *testing.B) {
	z, err := models.NewZ(0.975)
	if err != nil {
		b.Fatal(err)
	}
	buffers := []float64{0, 27, 134, 269}
	cfg := mux.Config{Model: z, N: 30, C: 538, Frames: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := mux.RunSweep(cfg, buffers); err != nil {
			b.Fatal(err)
		}
	}
}
