package mux

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/runner"
	"repro/internal/traffic"
)

func TestRunSweepMatchesIndividualRuns(t *testing.T) {
	// A sweep must reproduce exactly what independent Run calls produce for
	// the same seed, since the arrival stream is a pure function of seed.
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 5, C: 515, Frames: 8000, Seed: 21}
	buffers := []float64{0, 10, 50}
	sweep, err := RunSweep(cfg, buffers)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buffers {
		single := cfg
		single.B = b
		res, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		if res != sweep[i] {
			t.Fatalf("buffer %v: sweep %+v != single %+v", b, sweep[i], res)
		}
	}
}

// TestRunSweepKeepsCallerOrder holds RunSweep to the order its callers
// index by: result j is the run at buffersCells[j], whatever that order.
func TestRunSweepKeepsCallerOrder(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 3, C: 520, Frames: 2000, Warmup: 100, Seed: 5}
	buffers := []float64{50, 0, 10, 0}
	sweep, err := RunSweep(cfg, buffers)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(buffers) {
		t.Fatalf("got %d results for %d buffers", len(sweep), len(buffers))
	}
	for j, b := range buffers {
		single := cfg
		single.B = b
		want, err := Run(single)
		if err != nil {
			t.Fatal(err)
		}
		if sweep[j] != want {
			t.Errorf("buffer %v at index %d: sweep %+v != Run %+v", b, j, sweep[j], want)
		}
	}
	if sweep[1].LostCells <= sweep[0].LostCells {
		t.Errorf("zero buffer lost %v cells, no more than the 50-cell buffer's %v",
			sweep[1].LostCells, sweep[0].LostCells)
	}
}

func TestRunSweepValidation(t *testing.T) {
	z, _ := models.NewZ(0.9)
	cfg := Config{Model: z, N: 3, C: 520, Frames: 100, Seed: 5}
	if _, err := RunSweep(cfg, nil); err == nil {
		t.Error("empty sweep should error")
	}
	if _, err := RunSweep(cfg, []float64{-1}); err == nil {
		t.Error("negative buffer should error")
	}
	for _, b := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := RunSweep(cfg, []float64{0, b}); err == nil {
			t.Errorf("buffer %v should error", b)
		}
	}
	nanC := cfg
	nanC.C = math.NaN()
	if _, err := RunSweep(nanC, []float64{1}); err == nil {
		t.Error("NaN bandwidth should error")
	}
	bad := cfg
	bad.N = 0
	if _, err := RunSweep(bad, []float64{1}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestSweepReplicationsShape(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 3, C: 515, Frames: 3000, Seed: 9}
	buffers := []float64{0, 20}
	out, err := SweepReplications(cfg, buffers, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0]) != 3 {
		t.Fatalf("shape [%d][%d], want [2][3]", len(out), len(out[0]))
	}
	// Replications must differ.
	if out[0][0].CLR == out[0][1].CLR && out[0][1].CLR == out[0][2].CLR && out[0][0].CLR != 0 {
		t.Fatal("replications identical")
	}
	if _, err := SweepReplications(cfg, buffers, 0); err == nil {
		t.Error("reps = 0 should error")
	}
}

// TestSweepReplicationsEngineDeterministic is the acceptance check for the
// orchestration engine: the CLR estimates from a serial run (-workers=1)
// and a fully parallel run (-workers=NumCPU) must be bit-identical for the
// same master seed, because per-replication seeds are pure functions of
// (seed, job, rep index).
func TestSweepReplicationsEngineDeterministic(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 5, C: 515, Frames: 4000, Seed: 1996}
	buffers := []float64{0, 10, 40}
	const reps = 8

	serial, err := SweepReplications(cfg, buffers, reps)
	if err != nil {
		t.Fatal(err)
	}
	// Cover NumCPU plus forced multi-worker pools so a single-core CI
	// machine still exercises concurrent scheduling.
	for _, workers := range []int{runtime.NumCPU(), 2, reps} {
		parallel, err := SweepReplicationsEngine(context.Background(),
			runner.New(workers), cfg, buffers, reps)
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial {
			for r := range serial[j] {
				if serial[j][r] != parallel[j][r] {
					t.Fatalf("workers=%d buffer %d rep %d: serial %+v != parallel %+v",
						workers, j, r, serial[j][r], parallel[j][r])
				}
			}
		}
		cs, cp := CLREstimate(serial[1], 0.95), CLREstimate(parallel[1], 0.95)
		if cs != cp {
			t.Fatalf("workers=%d: CLR estimate differs: serial %+v, parallel %+v",
				workers, cs, cp)
		}
	}
}

func TestSweepReplicationsEngineCancellation(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Model: z, N: 5, C: 515, Frames: 4000, Seed: 3}
	if _, err := SweepReplicationsEngine(ctx, runner.New(2), cfg, []float64{0}, 50); err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}

func TestSweepCLRConsistent(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: z, N: 10, C: 510, Frames: 10000, Seed: 4}
	res, err := RunSweep(cfg, []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ArrivedCells <= 0 {
			t.Fatal("no arrivals recorded")
		}
		if math.Abs(r.CLR-r.LostCells/r.ArrivedCells) > 1e-15 {
			t.Fatal("CLR inconsistent with counts")
		}
	}
}

// TestSweepCheckpointGrowsReps grows a closed-loop sweep from 10 to 60
// replications through one checkpoint; the result must equal a 60-rep
// sweep made in one go, and the 10 stored replications must not re-run.
func TestSweepCheckpointGrowsReps(t *testing.T) {
	m, err := modelspec.Parse("aimd:dar1:0.9")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: m, N: 3, C: 480, Frames: 200, Warmup: 10, Seed: 5}
	buffers := []float64{20, 0, 5}
	ck, err := runner.OpenCheckpoint(filepath.Join(t.TempDir(), "ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	eng := runner.New(2)
	eng.SetCheckpoint(ck)
	if _, err := SweepReplicationsEngine(context.Background(), eng, cfg, buffers, 10); err != nil {
		t.Fatal(err)
	}
	grown, err := SweepReplicationsEngine(context.Background(), eng, cfg, buffers, 60)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().RepsResumed; n != 10 {
		t.Fatalf("grown sweep resumed %d replications, want 10", n)
	}
	whole, err := SweepReplicationsEngine(context.Background(), runner.New(2), cfg, buffers, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grown, whole) {
		t.Fatal("sweep grown through a checkpoint differs from one made in one go")
	}
}

// versioned reports v as the draw version of m's paths.
type versioned struct {
	traffic.Model
	v string
}

func (m versioned) DrawVersion() string { return m.v }

// TestCheckpointKeysOnDrawVersion writes a checkpoint under one draw
// version and shows that runs under the next version, through a sweep
// and a per-buffer job alike, replay none of it and equal fresh runs,
// while a rerun under the checkpointed version replays all. The versions
// are the composite's before and after the FBNDP ziggurat; the source is
// a fast DAR(1), since a fingerprint reads only the version string.
func TestCheckpointKeysOnDrawVersion(t *testing.T) {
	m, err := modelspec.Parse("dar1:0.9")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := runner.OpenCheckpoint(filepath.Join(t.TempDir(), "ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	buffers := []float64{20, 0, 5}
	const reps = 4
	run := func(version string) (resumed int64, sweep [][]Result, single []Result) {
		t.Helper()
		eng := runner.New(2)
		eng.SetCheckpoint(ck)
		cfg := Config{Model: versioned{m, version}, N: 3, C: 480, B: 5, Frames: 200, Seed: 5}
		if sweep, err = SweepReplicationsEngine(context.Background(), eng, cfg, buffers, reps); err != nil {
			t.Fatal(err)
		}
		if single, err = RunReplicationsEngine(context.Background(), eng, cfg, reps); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().RepsResumed, sweep, single
	}
	if n, _, _ := run("fbndp.1+dar.2"); n != 0 {
		t.Fatalf("first run resumed %d replications from an empty checkpoint", n)
	}
	n, sweep, single := run("fbndp.2+dar.2")
	if n != 0 {
		t.Fatalf("run under a new draw version replayed %d checkpointed replications, want 0", n)
	}
	if n, again, againSingle := run("fbndp.2+dar.2"); n != 2*reps || !reflect.DeepEqual(again, sweep) || !reflect.DeepEqual(againSingle, single) {
		t.Fatalf("rerun under the checkpointed version resumed %d replications (want %d) or differs", n, 2*reps)
	}
	fresh, err := SweepReplicationsEngine(context.Background(), runner.New(1),
		Config{Model: m, N: 3, C: 480, Frames: 200, Seed: 5}, buffers, reps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweep, fresh) {
		t.Fatal("sweep under a new draw version differs from a run without a checkpoint")
	}
}

// TestDrawVersions pins each model family's draw version as checkpoint
// fingerprints see it: a composite joins its parts', a wrapper reports
// its base's.
func TestDrawVersions(t *testing.T) {
	for spec, want := range map[string]string{
		"dar1:0.9":     "dar.2",
		"dar:0.975:3":  "dar.2",
		"z:0.975":      "fbndp.2+dar.2",
		"v:1":          "fbndp.2+dar.2",
		"l":            "fbndp.2",
		"aimd:z:0.975": "fbndp.2+dar.2",
		"fgn:0.9":      "fgn.1",
		"mginf:0.9":    "mginf.1",
	} {
		m, err := modelspec.Parse(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if got := traffic.DrawVersion(m); got != want {
			t.Errorf("%s: draw version %q, want %q", spec, got, want)
		}
		if got := traffic.DrawVersion(traffic.NewMoments(traffic.ScalarModel(m))); got != want {
			t.Errorf("%s behind Moments and ScalarModel: draw version %q, want %q", spec, got, want)
		}
	}
}
