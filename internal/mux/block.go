package mux

import (
	"sync"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Package-level telemetry, recorded into telemetry.Default so every
// simulation in the process aggregates into one place (the run
// manifest's final metrics snapshot). All metrics are
// observational: they never touch the random streams, so fixed-seed
// results are bit-identical whether or not anything reads them.
//
// Granularity: counters are bumped once per chunk (≤ 4096 frames) or once
// per run, never per frame, and the fill/drain timers cost two time.Now
// calls per chunk — noise against the ~10⁵ frame steps a chunk performs.
var (
	metFrames       = telemetry.Default.Counter("mux_frames_total")
	metCellsArrived = telemetry.Default.FloatCounter("mux_cells_arrived_total")
	metCellsLost    = telemetry.Default.FloatCounter("mux_cells_lost_total")
	metRuns         = telemetry.Default.Counter("mux_runs_total")
	metOccupancy    = telemetry.Default.Histogram("mux_buffer_occupancy_cells")
	metFillTime     = telemetry.Default.Timer("mux_chunk_fill_seconds")
	metDrainTime    = telemetry.Default.Timer("mux_chunk_drain_seconds")
	metPoolGets     = telemetry.Default.Counter("mux_chunk_pool_gets_total")
	metPoolMisses   = telemetry.Default.Counter("mux_chunk_pool_misses_total")
	// Path split: runs without a closed-loop source (chunked) and runs
	// with one, fed back per frame (stepped). figbench's ledger reads them
	// as mux.runs_chunked and mux.runs_stepped.
	metPathChunked = telemetry.Default.Counter("mux_path_runs_total", telemetry.L("path", "chunked"))
	metPathStepped = telemetry.Default.Counter("mux_path_runs_total", telemetry.L("path", "stepped"))
)

// chunkFrames is the streaming block length used by every simulation loop
// in this package: each source fills 4096 frames (32 KiB of float64) at a
// time, so the per-chunk working set — one aggregate buffer plus one
// scratch buffer — stays L2-resident while amortising the per-frame
// interface dispatch of the scalar traffic.Generator protocol over whole
// blocks. Generators with a native Fill (fgn block synthesis,
// trace replay) additionally amortise or eliminate their own per-frame
// overhead.
const chunkFrames = 4096

// chunkPool recycles chunk buffers across runs so sweeps allocate a
// constant number of buffers regardless of horizon. The pool stores
// *[]float64 (not []float64) so Put does not allocate a fresh interface
// box for the slice header on every cycle. The gets/misses counter pair
// measures reuse: hits = gets − misses, and a healthy steady state shows
// misses plateauing while gets keep growing (asserted by TestChunkPoolReuse).
var chunkPool = sync.Pool{
	New: func() interface{} {
		metPoolMisses.Inc()
		b := make([]float64, chunkFrames)
		return &b
	},
}

// getChunk draws a pooled chunk buffer, counting the request.
func getChunk() *[]float64 {
	metPoolGets.Inc()
	return chunkPool.Get().(*[]float64)
}

// blockAggregator streams the aggregate arrival process of a set of
// sources in chunks. The aggregate for frame i is accumulated in source
// order — the same float64 summation order as the old per-frame
// aggregate() loop — so block-streamed sample paths are bit-identical to
// the scalar protocol's.
type blockAggregator struct {
	gens []traffic.BlockGenerator
	agg  *[]float64
	tmp  *[]float64
	span trace.Span // parent for per-chunk "mux fill" spans; zero = off
}

// newBlockAggregator wraps gens for block streaming, using each
// generator's native Fill where it has one. Callers must pair every
// construction with a deferred release so the pooled buffers are returned
// even when the enclosing simulation exits early (error or panic mid-run).
func newBlockAggregator(gens []traffic.Generator) *blockAggregator {
	bs := make([]traffic.BlockGenerator, len(gens))
	for i, g := range gens {
		bs[i] = traffic.Blocks(g)
	}
	return &blockAggregator{
		gens: bs,
		agg:  getChunk(),
		tmp:  getChunk(),
	}
}

// next returns the aggregate frame volumes for the next n frames
// (n ≤ chunkFrames). The returned slice is owned by the aggregator and
// valid until the next call to next or release.
func (b *blockAggregator) next(n int) []float64 {
	defer b.span.Child("mux fill", trace.Int("frames", n)).End()
	defer metFillTime.Start()()
	agg := (*b.agg)[:n]
	tmp := (*b.tmp)[:n]
	for i := range agg {
		agg[i] = 0
	}
	for _, g := range b.gens {
		g.Fill(tmp)
		for i, v := range tmp {
			agg[i] += v
		}
	}
	metFrames.Add(int64(n))
	return agg
}

// release returns the chunk buffers to the pool. The aggregator must not
// be used afterwards.
func (b *blockAggregator) release() {
	if b.agg != nil {
		chunkPool.Put(b.agg)
		chunkPool.Put(b.tmp)
		b.agg, b.tmp = nil, nil
	}
}
