// Package experiments regenerates every table and figure of the paper's
// evaluation (Table 1, Figures 1-10). Each driver returns structured
// Series data that the cmd/repro tool and the benchmark harness render;
// EXPERIMENTS.md records the comparison against the published shapes.
//
// Analytic experiments (Table 1, Figs 1-7) are deterministic. Simulation
// experiments (Figs 8-10) take a SimConfig; the defaults are scaled down
// from the paper's 60 replications × 500k frames so the full suite runs in
// minutes — pass larger values (e.g. via cmd/repro -reps -frames) for
// paper-scale statistics.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/diag"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Series is one labelled curve of an experiment. Simulation-backed series
// also carry replication confidence bounds (Lo/Hi parallel to Y) so run
// manifests can record CLR ± CI, not just the point estimate, and
// per-point convergence verdicts (Verdicts parallel to Y) so a manifest
// records whether each estimate had statistically converged; analytic
// series leave them nil. Render/CSV show the point estimates only.
type Series struct {
	Label    string
	X        []float64
	Y        []float64
	Lo       []float64
	Hi       []float64
	Verdicts []diag.Verdict
}

// Result is one table or figure panel.
type Result struct {
	ID     string // e.g. "fig5a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Standard operating points from the paper.
const (
	// Fig4N and Fig4C: CTS figures use N = 100 sources at c = 526
	// cells/frame (paper Fig 4 caption).
	Fig4N = 100
	Fig4C = 526.0
	// BopN and BopC: all BOP/CLR figures use N = 30 sources at c = 538
	// cells/frame (paper Figs 5-10 captions).
	BopN = 30
	BopC = 538.0
)

// BufferGridMsec is the practical buffer range of Figs 4-6 and 8-10 (total
// buffer expressed as maximum delay in milliseconds).
var BufferGridMsec = []float64{0, 1, 2, 4, 6, 8, 10, 12, 15, 20, 25, 30}

// WideBufferGridMsec is the Fig 7 range, far beyond practical dimensioning.
var WideBufferGridMsec = []float64{1, 2, 5, 10, 20, 40, 80, 150, 300, 600, 1000}

// MsecToPerSourceCells converts a total-buffer delay in milliseconds to a
// per-source buffer allocation in cells at per-source bandwidth c
// (cells/frame): draining N·b cells at N·c cells per Ts takes b/c·Ts.
func MsecToPerSourceCells(msec, c float64) float64 {
	return msec / 1000 / models.Ts * c
}

// Render lays the result out as an aligned text table: the x column
// followed by one column per series.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	b.WriteByte('\n')
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		var x float64 = math.NaN()
		for _, s := range r.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range r.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %16.6g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the result as comma-separated values with a header row. All
// series are assumed to share the x grid of the longest series.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(r.XLabel)
	for _, s := range r.Series {
		b.WriteByte(',')
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		var x float64 = math.NaN()
		for _, s := range r.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%g", x)
		for _, s := range r.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SimConfig scales the simulation experiments and selects how their
// replications are orchestrated. Results are a pure function of
// (Reps, Frames, Seed) — Workers/Engine/Ctx change only wall-clock
// behaviour, never the numbers.
type SimConfig struct {
	Reps   int   // independent replications (paper: 60)
	Frames int   // frames per replication (paper: 500000)
	Seed   int64 // master seed

	// Workers bounds the replication worker pool when no Engine is
	// supplied: ≤ 0 means runtime.NumCPU(), 1 is the serial path.
	Workers int
	// Engine, when non-nil, runs every simulation job — sharing its
	// worker pool, progress counters and checkpoint across figures.
	Engine *runner.Engine
	// Ctx, when non-nil, cancels running replications (fail-fast).
	Ctx context.Context

	// Span, when active, parents the figure's trace spans: each model
	// sweep becomes a child span, and replications/mux chunks nest below
	// it. The zero Span disables tracing. Observational only — never part
	// of seeds, so results are bit-identical with tracing on or off.
	Span trace.Span
}

// engine returns the orchestration engine to run under.
func (s SimConfig) engine() *runner.Engine {
	if s.Engine != nil {
		return s.Engine
	}
	return runner.New(s.Workers)
}

// context returns the cancellation context to run under.
func (s SimConfig) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// DefaultSim keeps the whole simulation suite to tens of minutes on one
// core. The dominant cost is the V^1.5 model, whose fractal onset time
// forces phase changes ~100× per frame; raise -reps/-frames deliberately.
var DefaultSim = SimConfig{Reps: 4, Frames: 20000, Seed: 1996}

// Validate checks the simulation scale.
func (s SimConfig) Validate() error {
	if s.Reps < 1 {
		return fmt.Errorf("experiments: reps = %d must be ≥ 1", s.Reps)
	}
	if s.Frames < 1 {
		return fmt.Errorf("experiments: frames = %d must be ≥ 1", s.Frames)
	}
	return nil
}
