package mux

import (
	"runtime/debug"
	"testing"

	"repro/internal/modelspec"
)

// TestRunAllocationsIndependentOfFrames is the allocation fence on the
// drains: a replication allocates only while it is set up, so running 4
// chunks allocates no more than running 1. It covers open-loop sources,
// closed-loop ones fed back per frame, and the shared-base closed-loop
// sweep over several buffers. Z and L generate at ~10 µs per
// source-frame, which is why the runs are this short.
//
// The allocation counter is process-wide, so another goroutine's stray
// allocation can land inside a measured run. AllocsPerRun averages over
// allocRuns runs in integer arithmetic: fewer than allocRuns stray
// allocations vanish from the average, while one allocation per chunk
// still adds 3 at 4 chunks.
func TestRunAllocationsIndependentOfFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const allocRuns = 4
	// A GC cycle may empty the chunk-buffer pool between runs; with GC off
	// every refill the test sees is the code's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		spec    string
		buffers []float64
	}{
		{"dar1:0.9", []float64{50}},
		{"z:0.975", []float64{50}},
		{"l", []float64{50}},
		{"aimd:z:0.975", []float64{50}},
		{"aimd:z:0.975", []float64{50, 0, 10, 200}},
	} {
		m, err := modelspec.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(chunks int) float64 {
			cfg := Config{Model: m, N: 2, C: 538, Frames: chunks * chunkFrames, Seed: 1}
			return testing.AllocsPerRun(allocRuns, func() {
				if _, err := RunSweep(cfg, tc.buffers); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a1, a4 := allocs(1), allocs(4); a4 > a1 {
			t.Errorf("%s at %d buffers: %v allocations at 4 chunks, %v at 1; want no growth",
				tc.spec, len(tc.buffers), a4, a1)
		}
	}
}
