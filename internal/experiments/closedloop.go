package experiments

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// ClosedLoopBufferGridMsec is the buffer grid of the closed-loop figure.
// It spans the same practical range as SimBufferGridMsec but with fewer
// points: closed-loop curves cannot share one arrival path across buffer
// sizes (the feedback tap couples arrivals to the buffer), so every point
// is a full per-buffer simulation rather than one leg of a coupled sweep.
var ClosedLoopBufferGridMsec = []float64{0, 1, 2, 4, 8, 14, 20}

// ClosedLoopC is the per-source bandwidth of the closed-loop figure,
// cells/frame. The paper's c = 538 (utilisation ≈ 0.93) leaves CLR near
// the resolution floor of a smoke-scale run and gives a controller that
// never exceeds its encoded rate almost nothing to react to; at c = 510
// (≈ 98% offered load) the open-loop families lose ~1e-3 of their cells
// and the open-vs-adaptive gap is the figure's subject, not noise.
const ClosedLoopC float64 = 510

// closedLoopSeries measures the simulated CLR of one (typically adaptive)
// model across the buffer grid with independent per-buffer runs, fanning
// the replications of each point over cfg's orchestration engine. All
// points share the master seed, so their underlying open-loop draws are
// positively coupled exactly like the coupled sweep's — only the
// feedback-driven adaptation differs per buffer. Results are bit-identical
// for any worker count: each replication's feedback dynamics are confined
// to its own serial step loop.
func closedLoopSeries(m traffic.Model, c float64, n int, grid []float64, cfg SimConfig) (Series, error) {
	if err := cfg.Validate(); err != nil {
		return Series{}, err
	}
	sp := cfg.Span.Child("closed-loop sweep "+m.Name(),
		trace.Int("N", n), trace.Float("c", c), trace.Int("reps", cfg.Reps))
	defer sp.End()
	ctx := trace.ContextWith(cfg.context(), sp)
	ctx = prof.WithLabels(ctx, prof.Labels{Model: m.Name()})
	eng := cfg.engine()
	s := Series{Label: m.Name()}
	clrs := make([]float64, cfg.Reps)
	for _, msec := range grid {
		// Unlike the coupled sweep, every grid point is its own simulation,
		// so CPU samples carry the buffer size they were spent on.
		pctx := prof.WithLabels(ctx, prof.Labels{SweepPoint: fmt.Sprintf("%gmsec", msec)})
		run := mux.Config{
			Model:  m,
			N:      n,
			C:      c,
			B:      MsecToPerSourceCells(msec, c),
			Frames: cfg.Frames,
			Warmup: cfg.Frames / 20,
			Seed:   cfg.Seed,
		}
		results, err := mux.RunReplicationsEngine(pctx, eng, run, cfg.Reps)
		if err != nil {
			return Series{}, fmt.Errorf("closed-loop %s: %w", m.Name(), err)
		}
		ci := mux.CLREstimate(results, 0.95)
		s.X = append(s.X, msec)
		s.Y = append(s.Y, ci.Point)
		s.Lo = append(s.Lo, ci.Low())
		s.Hi = append(s.Hi, ci.High())
		for rep, r := range results {
			clrs[rep] = r.CLR
		}
		v := diag.Assess(clrs, cfg.convRel())
		publishConvergence(v)
		s.Verdicts = append(s.Verdicts, v)
		if !v.Converged {
			telemetry.Log.Warnf("%s buffer %g msec: %s", m.Name(), msec, v)
		}
	}
	return s, nil
}

// closedLoopBases assembles the figure's base models: one of each family
// the paper sweeps — V^1 (balanced composite), Z^0.975 (the headline
// asymptotic-LRD model), its matched Markov model DAR(1), and the exact-
// LRD model L.
func closedLoopBases() ([]traffic.Model, error) {
	v, err := models.NewV(1)
	if err != nil {
		return nil, err
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		return nil, err
	}
	s, err := models.FitS(z, 1)
	if err != nil {
		return nil, err
	}
	l, err := models.NewL()
	if err != nil {
		return nil, err
	}
	return []traffic.Model{v, z, s, l}, nil
}

// ExtClosedLoop regenerates the closed-loop extension figure: simulated
// CLR vs buffer for the paper's V/Z/S/L source families, each run twice —
// open-loop exactly as published, and wrapped in the AIMD rate controller
// (models.NewAIMD with defaults) so frame sizes adapt to the queue state
// through the multiplexer's per-frame feedback.
//
// This answers the ROADMAP question the paper cannot ask: does "short-term
// correlations dominate CLR" survive when sources react to the
// multiplexer? Compare each adaptive curve against its open-loop twin —
// and, across model families, whether the Markov model S still tracks the
// LRD models Z and L once all of them adapt.
//
// Open-loop twins run through the coupled sweep (one arrival path, all
// buffers); adaptive series run per-buffer, fed back every frame.
// Both fan replications over cfg's engine and are bit-identical for any
// worker count.
func ExtClosedLoop(cfg SimConfig) (*Result, error) {
	bases, err := closedLoopBases()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "extloop",
		Title:  fmt.Sprintf("Closed-loop AIMD vs open-loop CLR (c=%g, N=%d)", ClosedLoopC, BopN),
		XLabel: "buffer msec", YLabel: "CLR",
	}
	for _, base := range bases {
		open, err := clrSeries(base, ClosedLoopC, BopN, ClosedLoopBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, open)
		ad, err := models.NewAIMD(base, models.AIMDConfig{})
		if err != nil {
			return nil, err
		}
		closed, err := closedLoopSeries(ad, ClosedLoopC, BopN, ClosedLoopBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, closed)
	}
	return res, nil
}
