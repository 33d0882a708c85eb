package mux

import (
	"runtime/debug"
	"testing"

	"repro/internal/modelspec"
)

// TestRunAllocationsIndependentOfFrames is the allocation fence on the
// engine: a replication allocates only while it is set up, so running 4
// chunks allocates no more than running 1. It covers the chunked path,
// the stepped engine forced over the same open-loop sources, and the
// closed-loop stepped path. Z and L generate at ~10 µs per source-frame,
// which is why the runs are this short.
func TestRunAllocationsIndependentOfFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	// A GC cycle may empty the chunk-buffer pool between runs; with GC off
	// every refill the test sees is the code's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		spec      string
		forceStep bool
	}{
		{"dar1:0.9", false}, {"dar1:0.9", true},
		{"z:0.975", false}, {"z:0.975", true},
		{"l", false}, {"l", true},
		{"aimd:z:0.975", false},
	} {
		m, err := modelspec.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(chunks int) float64 {
			cfg := Config{Model: m, N: 2, C: 538, B: 50, Frames: chunks * chunkFrames, Seed: 1, ForceStep: c.forceStep}
			return testing.AllocsPerRun(1, func() {
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a1, a4 := allocs(1), allocs(4); a4 > a1 {
			t.Errorf("%s (ForceStep %v): %v allocations at 4 chunks, %v at 1; want no growth", c.spec, c.forceStep, a4, a1)
		}
	}
}
