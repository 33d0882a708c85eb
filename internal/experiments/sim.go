package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// SimBufferGridMsec is the buffer grid used by the simulation figures.
// Loss rates much below 1/(frames × cells-per-frame) are unobservable, so
// the grid stops at 20 msec where the paper's own curves reach ≈1e-6.
var SimBufferGridMsec = []float64{0, 1, 2, 4, 6, 8, 10, 14, 20}

// clrSeries measures the simulated CLR of one model across the buffer grid
// using a coupled sweep (one arrival stream per replication drives all
// buffer sizes; for a closed-loop model, one base stream that each
// buffer's controllers scale), averaging over cfg.Reps replications. Replications are
// fanned out over cfg's orchestration engine; the estimates are
// bit-identical for any worker count.
//
// Each sweep runs under a child span of cfg.Span (replications and mux
// chunks nest below it), and every grid point gets a convergence verdict
// over its per-replication CLRs; unconverged points are logged as
// warnings and points with no loss at debug level. Both are
// observational — they never touch the estimates.
func clrSeries(m traffic.Model, c float64, n int, grid []float64, cfg SimConfig) (Series, error) {
	if err := cfg.Validate(); err != nil {
		return Series{}, err
	}
	sp := cfg.Span.Child("sweep "+m.Name(),
		trace.Int("N", n), trace.Float("c", c), trace.Int("reps", cfg.Reps))
	defer sp.End()
	buffers := make([]float64, len(grid))
	for i, msec := range grid {
		buffers[i] = MsecToPerSourceCells(msec, c)
	}
	run := mux.Config{
		Model:  m,
		N:      n,
		C:      c,
		Frames: cfg.Frames,
		Warmup: cfg.Frames / 20,
		Seed:   cfg.Seed,
	}
	ctx := trace.ContextWith(cfg.context(), sp)
	// Profiling coordinates: every CPU sample taken under this sweep is
	// attributable to the model and to the coupled pass (all buffer sizes
	// share one arrival path, so there is no per-point coordinate to name).
	ctx = prof.WithLabels(ctx, prof.Labels{Model: m.Name(), SweepPoint: "coupled"})
	byBuffer, err := mux.SweepReplicationsEngine(ctx, cfg.engine(), run, buffers, cfg.Reps)
	if err != nil {
		return Series{}, fmt.Errorf("sim %s: %w", m.Name(), err)
	}
	s := Series{Label: m.Name()}
	clrs := make([]float64, cfg.Reps)
	for i := range grid {
		ci := mux.CLREstimate(byBuffer[i], 0.95)
		s.X = append(s.X, grid[i])
		s.Y = append(s.Y, ci.Point)
		s.Lo = append(s.Lo, ci.Low())
		s.Hi = append(s.Hi, ci.High())
		for rep, r := range byBuffer[i] {
			clrs[rep] = r.CLR
		}
		v := diag.Assess(clrs)
		publishConvergence(v)
		s.Verdicts = append(s.Verdicts, v)
		switch v.Outcome {
		case diag.Unconverged:
			telemetry.Log.Warnf("%s buffer %g msec: %s", m.Name(), grid[i], v)
		case diag.NoLoss:
			telemetry.Log.Debugf("%s buffer %g msec: %s", m.Name(), grid[i], v)
		}
	}
	return s, nil
}

// Fig8 regenerates Figure 8: simulated finite-buffer CLRs of (a) V^v and
// (b) Z^a with N = 30 and c = 538 — the empirical confirmation of Fig 5.
func Fig8(cfg SimConfig) ([]*Result, error) {
	a := &Result{
		ID: "fig8a", Title: "Simulated CLR of V^v (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "CLR",
	}
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		s, err := clrSeries(m, BopC, BopN, SimBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		a.Series = append(a.Series, s)
	}
	b := &Result{
		ID: "fig8b", Title: "Simulated CLR of Z^a (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "CLR",
	}
	for _, av := range models.ZValues {
		m, err := models.NewZ(av)
		if err != nil {
			return nil, err
		}
		s, err := clrSeries(m, BopC, BopN, SimBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		b.Series = append(b.Series, s)
	}
	return []*Result{a, b}, nil
}

// Fig9 regenerates Figure 9: simulated CLRs of Z^a, L and the matched
// DAR(p) models — the empirical confirmation of Fig 6. Panel (a) uses
// Z^0.975 (with L), panel (b) Z^0.7.
func Fig9(cfg SimConfig) ([]*Result, error) {
	var out []*Result
	for i, target := range []float64{0.975, 0.7} {
		z, err := models.NewZ(target)
		if err != nil {
			return nil, err
		}
		res := &Result{
			ID:     fmt.Sprintf("fig9%c", 'a'+i),
			Title:  fmt.Sprintf("Simulated CLR: %s vs matched DAR(p) (c=538, N=30)", z.Name()),
			XLabel: "buffer msec", YLabel: "CLR",
		}
		s, err := clrSeries(z, BopC, BopN, SimBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		for _, order := range models.SOrders {
			d, err := models.FitS(z, order)
			if err != nil {
				return nil, err
			}
			s, err := clrSeries(d, BopC, BopN, SimBufferGridMsec, cfg)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
		if i == 0 {
			l, err := models.NewL()
			if err != nil {
				return nil, err
			}
			s, err := clrSeries(l, BopC, BopN, SimBufferGridMsec, cfg)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig10 regenerates Figure 10: the accuracy of the two large-buffer
// asymptotics against simulation for the DAR(1) model matched to Z^0.975.
// Three series: B-R asymptotic, large-N asymptotic, and the simulated CLR.
func Fig10(cfg SimConfig) (*Result, error) {
	z, err := models.NewZ(0.975)
	if err != nil {
		return nil, err
	}
	d, err := models.FitS(z, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig10",
		Title:  "Asymptotics vs simulation for DAR(1)[Z^0.975] (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "probability",
	}
	br := Series{Label: "Bahadur-Rao"}
	ln := Series{Label: "Large-N"}
	mo := core.Moments(d)
	for _, msec := range SimBufferGridMsec {
		op := core.Operating{C: BopC, B: MsecToPerSourceCells(msec, BopC), N: BopN}
		pb, err := core.BahadurRaoMoments(mo, op, 0)
		if err != nil {
			return nil, err
		}
		pl, err := core.LargeNMoments(mo, op, 0)
		if err != nil {
			return nil, err
		}
		br.X = append(br.X, msec)
		br.Y = append(br.Y, pb)
		ln.X = append(ln.X, msec)
		ln.Y = append(ln.Y, pl)
	}
	sim, err := clrSeries(d, BopC, BopN, SimBufferGridMsec, cfg)
	if err != nil {
		return nil, err
	}
	sim.Label = "simulated CLR"
	res.Series = append(res.Series, br, ln, sim)
	return res, nil
}

// ZeroBufferCheck returns the analytic fluid zero-buffer CLR
// σ_N·L((C−μ_N)/σ_N)/μ_N that every model must reproduce at B = 0 (the
// paper notes all CLR curves start near 1e-5 at zero buffer, confirming
// identical marginals).
func ZeroBufferCheck(c float64, n int) float64 {
	muN := models.Mean * float64(n)
	sigmaN := math.Sqrt(models.Variance * float64(n))
	z := (c*float64(n) - muN) / sigmaN
	return sigmaN * stats.NormalLoss(z) / muN
}
