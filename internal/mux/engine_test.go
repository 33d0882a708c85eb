package mux

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestLindleyStep(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name       string
		w, a, c, b float64
		loss, next float64
	}{
		{"empty stays empty", 0, 0, 10, 5, 0, 0},
		{"underload drains", 3, 2, 10, 5, 0, 0},
		{"net exactly zero", 4, 6, 10, 5, 0, 0},
		{"queues below buffer", 1, 12, 10, 5, 0, 3},
		{"fills buffer exactly", 0, 15, 10, 5, 0, 5},
		{"overflow clips to buffer", 2, 20, 10, 5, 7, 5},
		{"zero buffer loses all backlog", 0, 14, 10, 0, 4, 0},
		{"infinite buffer never loses", 100, 1000, 10, inf, 0, 1090},
		{"infinite buffer drains", 5, 2, 10, inf, 0, 0},
	}
	for _, tc := range cases {
		loss, next := lindleyStep(tc.w, tc.a, tc.c, tc.b)
		if loss != tc.loss || next != tc.next {
			t.Errorf("%s: lindleyStep(%g,%g,%g,%g) = (%g,%g), want (%g,%g)",
				tc.name, tc.w, tc.a, tc.c, tc.b, loss, next, tc.loss, tc.next)
		}
	}
}

// aimdModel wraps a Z model with the default AIMD controller for the
// closed-loop tests below.
func aimdModel(t testing.TB, a float64) traffic.Model {
	t.Helper()
	z, err := models.NewZ(a)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.NewAIMD(z, models.AIMDConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClosedLoopRunDeterministic(t *testing.T) {
	// Closed-loop sources are deterministic functions of (seed, feedback
	// sequence) and the drain's feedback sequence is itself
	// deterministic, so repeated same-seed runs must be bit-identical.
	cfg := Config{Model: aimdModel(t, 0.975), N: 8, C: 510, B: 25,
		Frames: 6000, Warmup: 300, Seed: 1996}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("repeat %d drifted:\nfirst %+v\nagain %+v", i, first, again)
		}
	}
	if first.ArrivedCells <= 0 {
		t.Fatal("closed-loop run produced no arrivals")
	}
}

func TestClosedLoopConservation(t *testing.T) {
	// arrived = lost + served + ΔW must hold exactly with feedback as it
	// does for open-loop sources; served ≤ C per frame bounds
	// the serve volume.
	cfg := Config{Model: aimdModel(t, 0.9), N: 5, C: 505, B: 20,
		Frames: 4000, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := res.ArrivedCells - res.LostCells - (res.FinalW - res.InitialW)
	if served < 0 || served > cfg.C*float64(cfg.N)*float64(cfg.Frames) {
		t.Fatalf("served volume %v outside [0, C·N·frames]", served)
	}
	if res.MaxWorkload > cfg.B*float64(cfg.N)+1e-9 {
		t.Fatalf("workload %v exceeded total buffer %v", res.MaxWorkload, cfg.B*float64(cfg.N))
	}
}

func TestClosedLoopReplicationsEngineWorkers(t *testing.T) {
	// Replication fan-out must be bit-identical for every worker count:
	// each replication derives its own seed and its drain is
	// single-threaded within a replication.
	cfg := Config{Model: aimdModel(t, 0.975), N: 6, C: 505, B: 15,
		Frames: 3000, Warmup: 200, Seed: 1996}
	const reps = 6
	serial, err := RunReplicationsEngine(context.Background(), runner.New(1), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != reps {
		t.Fatalf("got %d results, want %d", len(serial), reps)
	}
	for _, workers := range []int{runtime.NumCPU(), 2, reps} {
		parallel, err := RunReplicationsEngine(context.Background(), runner.New(workers), cfg, reps)
		if err != nil {
			t.Fatal(err)
		}
		for r := range serial {
			if serial[r] != parallel[r] {
				t.Fatalf("workers=%d rep %d: serial %+v != parallel %+v",
					workers, r, serial[r], parallel[r])
			}
		}
	}
}

// TestClosedLoopSweepMatchesPerBuffer holds the shared-base closed-loop
// sweep to the per-buffer replications it replaces: at every buffer, in
// the caller's unsorted order, each replication's Result must equal
// RunReplicationsEngine's at that buffer bit for bit, at 1 and 2 workers.
// The nested aimd:aimd: spec keeps its inner controller at rate 1 both
// ways. c = 480 is below the sources' mean, so every buffer's controllers
// back off and the buffers' arrivals part.
func TestClosedLoopSweepMatchesPerBuffer(t *testing.T) {
	const c, reps = 480, 2
	msecs := []float64{20, 0, 4}
	buffers := make([]float64, len(msecs))
	for j, ms := range msecs {
		buffers[j] = ms / 1000 / models.Ts * c
	}
	for _, spec := range []string{"aimd:v:1", "aimd:z:0.975", "aimd:dar:0.975:1", "aimd:l", "aimd:aimd:v:0.67"} {
		m, err := modelspec.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: m, N: 3, C: c, Frames: 500, Warmup: 60, Seed: 1996}
		want := make([][]Result, len(buffers))
		for j, b := range buffers {
			one := cfg
			one.B = b
			if want[j], err = RunReplicationsEngine(context.Background(), runner.New(1), one, reps); err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
		}
		if want[0][0].ArrivedCells == want[1][0].ArrivedCells {
			t.Errorf("%s: 20 ms and 0 ms arrivals agree; the controllers never reacted", spec)
		}
		for _, workers := range []int{1, 2} {
			got, err := SweepReplicationsEngine(context.Background(), runner.New(workers), cfg, buffers, reps)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			for j := range buffers {
				for r := range got[j] {
					if got[j][r] != want[j][r] {
						t.Errorf("%s workers=%d %g ms rep %d: sweep %+v, per-buffer %+v",
							spec, workers, msecs[j], r, got[j][r], want[j][r])
					}
				}
			}
		}
	}
}

// TestRunSweepRejectsUnsplitClosedLoop: sources that are closed-loop only
// as generators, with no base/controller split, serve one buffer each, so
// a sweep over several buffers must fail rather than share their state.
func TestRunSweepRejectsUnsplitClosedLoop(t *testing.T) {
	cfg := Config{Model: newRecordingModel(100, 0), N: 4, C: 100, Frames: 100, Seed: 1}
	if _, err := RunSweep(cfg, []float64{0, 10}); err == nil {
		t.Fatal("RunSweep shared unsplit closed-loop sources across two buffers")
	}
	if _, err := RunSweep(cfg, []float64{10}); err != nil {
		t.Fatalf("one-buffer sweep of unsplit closed-loop sources: %v", err)
	}
}

func TestCLREstimateEmpty(t *testing.T) {
	got := CLREstimate(nil, 0.95)
	want := stats.CI{Level: 0.95}
	if got != want {
		t.Fatalf("CLREstimate(nil) = %+v, want zero-value CI %+v", got, want)
	}
	got = CLREstimate([]Result{}, 0.9)
	want = stats.CI{Level: 0.9}
	if got != want {
		t.Fatalf("CLREstimate(empty) = %+v, want %+v", got, want)
	}
}
