// Golden Lindley-kernel regression: the stepped-engine refactor routed
// every simulation path (Run, RunBOP, the sweeps) through one
// shared lindleyStep kernel, and this test pins the kernel's sample paths
// to a manifest captured BEFORE that refactor. It regenerates the
// small-scale fig8/9/10 series in-process and compares every value at
// rtol 0 — any arithmetic drift in the kernel, the block pipeline, or the
// seed derivation is a hard failure, not a tolerance question.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// kernelTinyConfig reproduces the run that captured
// results/golden/kernel_tiny.jsonl:
//
//	repro -exp fig8,fig9,fig10 -reps 1 -frames 400 -seed 1996
//
// Results are bit-identical for every worker count, so Workers is pinned
// to 1 only for scheduling economy.
var kernelTinyConfig = experiments.SimConfig{Reps: 1, Frames: 400, Seed: 1996, Workers: 1}

func TestLindleyKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	man, err := telemetry.ReadManifest("results/golden/kernel_tiny.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]telemetry.ResultRecord{}
	for _, r := range man.Results {
		want[r.ID] = r
	}
	if len(want) != 5 {
		t.Fatalf("baseline has %d results, want 5 (fig8a,fig8b,fig9a,fig9b,fig10)", len(want))
	}

	var got []*experiments.Result
	fig8, err := experiments.Fig8(kernelTinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := experiments.Fig9(kernelTinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := experiments.Fig10(kernelTinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, fig8...)
	got = append(got, fig9...)
	got = append(got, fig10)

	if len(got) != len(want) {
		t.Fatalf("regenerated %d results, baseline has %d", len(got), len(want))
	}
	for _, r := range got {
		base, ok := want[r.ID]
		if !ok {
			t.Errorf("%s: not in baseline", r.ID)
			continue
		}
		if len(r.Series) != len(base.Series) {
			t.Errorf("%s: %d series, baseline has %d", r.ID, len(r.Series), len(base.Series))
			continue
		}
		for i, s := range r.Series {
			bs := base.Series[i]
			if s.Label != bs.Label {
				t.Errorf("%s series %d: label %q, baseline %q", r.ID, i, s.Label, bs.Label)
				continue
			}
			compareExact(t, r.ID, s.Label, "x", s.X, bs.X)
			compareExact(t, r.ID, s.Label, "y", s.Y, bs.Y)
			compareExact(t, r.ID, s.Label, "lo", s.Lo, bs.Lo)
			compareExact(t, r.ID, s.Label, "hi", s.Hi, bs.Hi)
		}
	}
}

// compareExact demands bit-equality (rtol 0): encoding/json round-trips
// float64 exactly, so the committed baseline carries the full-precision
// pre-refactor values.
func compareExact(t *testing.T, id, label, field string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s %s %s: %d values, baseline has %d", id, label, field, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s %s %s[%d]: %v != baseline %v (kernel drift)",
				id, label, field, i, got[i], want[i])
		}
	}
}
