package mux

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/telemetry"
)

// TestChunkPoolReuse proves via the telemetry counter pair that chunk
// buffers actually cycle through the sync.Pool: back-to-back runs must be
// served from returned buffers (hits), not fresh allocations (misses).
// This is the regression guard for the deferred release invariant — a leak
// (release not reached on an early exit) shows up as misses growing with
// every run.
func TestChunkPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	// sync.Pool may be emptied by a GC cycle; disable GC for the duration
	// so observed misses are attributable to the code path, not the
	// collector.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 4, C: 538, B: 100, Frames: 2000, Seed: 1}

	// Warm the pool: the first run may miss on both buffers.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	gets0 := metPoolGets.Value()
	misses0 := metPoolMisses.Value()
	const runs = 5
	for i := 0; i < runs; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	dGets := metPoolGets.Value() - gets0
	dMisses := metPoolMisses.Value() - misses0

	if dGets != 2*runs {
		t.Errorf("pool gets = %d across %d runs, want %d (agg + tmp per run)", dGets, runs, 2*runs)
	}
	if dMisses != 0 {
		t.Errorf("pool misses = %d after warm-up, want 0: chunk buffers are not being returned", dMisses)
	}
}

// TestRunMetricsAccumulate sanity-checks the per-run counters: frames,
// cells and run counts must advance by the simulated amounts.
func TestRunMetricsAccumulate(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 4, C: 538, B: 10, Frames: 5000, Warmup: 100, Seed: 3}

	frames0 := telemetry.Default.Counter("mux_frames_total").Value()
	runs0 := telemetry.Default.Counter("mux_runs_total").Value()
	arrived0 := telemetry.Default.FloatCounter("mux_cells_arrived_total").Value()
	occ0 := telemetry.Default.Histogram("mux_buffer_occupancy_cells").Count()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if d := telemetry.Default.Counter("mux_frames_total").Value() - frames0; d != int64(cfg.Frames+cfg.Warmup) {
		t.Errorf("frames counter advanced %d, want %d", d, cfg.Frames+cfg.Warmup)
	}
	if d := telemetry.Default.Counter("mux_runs_total").Value() - runs0; d != 1 {
		t.Errorf("runs counter advanced %d, want 1", d)
	}
	// Delta of a float accumulator: compare within rounding tolerance of
	// the counter's absolute magnitude.
	d := telemetry.Default.FloatCounter("mux_cells_arrived_total").Value() - arrived0
	if tol := 1e-9 * (arrived0 + res.ArrivedCells); d < res.ArrivedCells-tol || d > res.ArrivedCells+tol {
		t.Errorf("cells-arrived counter advanced %v, want %v", d, res.ArrivedCells)
	}
	if d := telemetry.Default.Histogram("mux_buffer_occupancy_cells").Count() - occ0; d < 1 {
		t.Error("occupancy histogram recorded no samples")
	}
}

// Telemetry must be purely observational: two identical runs, one
// surrounded by heavy metric reads, must produce bit-identical results.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 8, C: 538, B: 50, Frames: 10000, Warmup: 500, Seed: 42}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave snapshot reads with a second identical run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			telemetry.Default.Snapshot()
		}
	}()
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if r1 != r2 {
		t.Errorf("telemetry perturbed results:\n r1 = %+v\n r2 = %+v", r1, r2)
	}
	// And the registry renders without error.
	var found bool
	for _, s := range telemetry.Default.Snapshot() {
		if strings.HasPrefix(s.Name, "mux_") {
			found = true
		}
	}
	if !found {
		t.Error("no mux_* metrics in the default registry snapshot")
	}
}
