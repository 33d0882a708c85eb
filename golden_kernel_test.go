// Golden Lindley-kernel regression: every simulation path (Run, RunBOP,
// the open- and closed-loop sweeps) drains through one shared lindleyStep
// kernel. This test regenerates the smoke golden's figures in process and
// compares every value with results/golden/manifest.jsonl at rtol 0, so
// any arithmetic drift in the kernel, the block pipeline, the generators'
// draws or the seed derivation is a hard failure, not a tolerance
// question. At this scale 19 of the 25 simulated series lose cells, so
// drift that leaves zero-loss points at zero has few zeros to hide
// behind.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// goldenConfig reproduces the run that captured
// results/golden/manifest.jsonl:
//
//	repro -exp fig8,fig9,fig10,extloop -reps 2 -frames 1000 -seed 1996
//
// Results are bit-identical for every worker count, so Workers keeps the
// default of one worker per CPU.
var goldenConfig = experiments.SimConfig{Reps: 2, Frames: 1000, Seed: 1996}

func TestLindleyKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	man, err := telemetry.ReadManifest("results/golden/manifest.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]telemetry.ResultRecord{}
	for _, r := range man.Results {
		want[r.ID] = r
	}
	if len(want) != 6 {
		t.Fatalf("golden has %d results, want 6 (fig8a,fig8b,fig9a,fig9b,fig10,extloop)", len(want))
	}

	var got []*experiments.Result
	for _, run := range []func(experiments.SimConfig) ([]*experiments.Result, error){
		experiments.Fig8,
		experiments.Fig9,
		one(experiments.Fig10),
		one(experiments.ExtClosedLoop),
	} {
		rs, err := run(goldenConfig)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rs...)
	}

	if len(got) != len(want) {
		t.Fatalf("regenerated %d results, golden has %d", len(got), len(want))
	}
	for _, r := range got {
		base, ok := want[r.ID]
		if !ok {
			t.Errorf("%s: not in golden", r.ID)
			continue
		}
		if len(r.Series) != len(base.Series) {
			t.Errorf("%s: %d series, golden has %d", r.ID, len(r.Series), len(base.Series))
			continue
		}
		for i, s := range r.Series {
			bs := base.Series[i]
			if s.Label != bs.Label {
				t.Errorf("%s series %d: label %q, golden %q", r.ID, i, s.Label, bs.Label)
				continue
			}
			compareExact(t, r.ID, s.Label, "x", s.X, bs.X)
			compareExact(t, r.ID, s.Label, "y", s.Y, bs.Y)
			compareExact(t, r.ID, s.Label, "lo", s.Lo, bs.Lo)
			compareExact(t, r.ID, s.Label, "hi", s.Hi, bs.Hi)
		}
	}
}

// one adapts a single-result driver to the multi-result signature.
func one(f func(experiments.SimConfig) (*experiments.Result, error)) func(experiments.SimConfig) ([]*experiments.Result, error) {
	return func(cfg experiments.SimConfig) ([]*experiments.Result, error) {
		r, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return []*experiments.Result{r}, nil
	}
}

// compareExact demands bit-equality (rtol 0): encoding/json round-trips
// float64 exactly, so the committed golden carries full-precision values.
func compareExact(t *testing.T, id, label, field string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s %s %s: %d values, golden has %d", id, label, field, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s %s %s[%d]: %v != golden %v (drift)",
				id, label, field, i, got[i], want[i])
		}
	}
}
