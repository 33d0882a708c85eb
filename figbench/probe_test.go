package main

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/mux"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestProbeIsTransparent runs each paper model through mux.Run bare and
// wrapped by the probe: the results must be identical, for open-loop
// sources on the chunked path and for AIMD sources on the stepped path,
// whether the probe wraps the AIMD model or the base it adapts.
func TestProbeIsTransparent(t *testing.T) {
	for _, spec := range []string{"v:1", "z:0.975", "dar:0.975:1", "l", "aimd:z:0.975"} {
		m, err := modelspec.Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		// c = 450 overloads the link (μ = 500), so the AIMD sources back
		// off: a probe that hid their feedback would change the result.
		cfg := mux.Config{Model: m, N: 3, C: 450, B: 50, Frames: 200, Warmup: 10, Seed: 1996}
		bare, err := mux.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		p := newProbe()
		cfg.Model = p.wrap(m)
		wrapped, err := mux.Run(cfg)
		if err != nil {
			t.Fatalf("%s wrapped: %v", spec, err)
		}
		if !reflect.DeepEqual(bare, wrapped) {
			t.Errorf("%s: wrapped result %+v, bare %+v", spec, wrapped, bare)
		}
		if got := p.tally().frames; got != int64(cfg.N*(cfg.Frames+cfg.Warmup)) {
			t.Errorf("%s: probe counted %d frames, want %d", spec, got, cfg.N*(cfg.Frames+cfg.Warmup))
		}
		if ad, ok := m.(*models.AIMD); ok {
			inner, err := models.NewAIMD(newProbe().wrap(ad.Base()), ad.Config())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = inner
			if got, err := mux.Run(cfg); err != nil || !reflect.DeepEqual(bare, got) {
				t.Errorf("%s over a wrapped base: %+v (%v), bare %+v", spec, got, err, bare)
			}
		}
	}
}

// resultRecords converts experiments results to their manifest form, as
// cmd/repro writes them.
func resultRecords(rs ...*experiments.Result) []telemetry.ResultRecord {
	var out []telemetry.ResultRecord
	for _, r := range rs {
		rec := telemetry.ResultRecord{ID: r.ID}
		for _, s := range r.Series {
			rec.Series = append(rec.Series, telemetry.SeriesRecord{Label: s.Label, X: s.X, Y: s.Y, Lo: s.Lo, Hi: s.Hi})
		}
		out = append(out, rec)
	}
	return out
}

// TestReplayMatchesExperiments replays Fig 10 and the closed-loop figure
// at tiny scale, traced, and compares them with the experiments functions
// the repro child runs: the replay must reproduce them at rtol 0.
func TestReplayMatchesExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates in -short")
	}
	for _, tc := range []struct {
		name   string
		frames int
		run    func(experiments.SimConfig) ([]*experiments.Result, error)
	}{
		{"dar-fanout", 200, func(c experiments.SimConfig) ([]*experiments.Result, error) {
			r, err := experiments.Fig10(c)
			return []*experiments.Result{r}, err
		}},
		{"closed-loop", 40, func(c experiments.SimConfig) ([]*experiments.Result, error) {
			r, err := experiments.ExtClosedLoop(c)
			return []*experiments.Result{r}, err
		}},
	} {
		want, err := tc.run(experiments.SimConfig{Reps: 1, Frames: tc.frames, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := findWorkload(tc.name)
		p := newProbe()
		tr := trace.New()
		root := tr.Root("workload " + w.name)
		got, err := w.replay(&replayer{p: p, sp: root, seed: 7, reps: 1, frames: tc.frames, eng: runner.New(1)})
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		var c checker
		c.checkSame(w.name+" replay", resultRecords(want...), got)
		if c.failed != 0 || c.attempted == 0 {
			t.Errorf("%s: replay differs from experiments (%d of %d checks failed)", w.name, c.failed, c.attempted)
		}
		if tr.Len() < 3 || p.tally().frames == 0 {
			t.Errorf("%s: traced replay recorded %d spans and %d frames", w.name, tr.Len(), p.tally().frames)
		}
	}
}
