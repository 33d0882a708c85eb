package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// replayer re-runs a workload's figures in-process, serially, through the
// layers' public calls and the experiments package's exported grids and
// constants — the same computation the repro child performs, so its
// outputs must equal the child's at rtol 0. With a probe it is the traced
// pass: spans run workload → figure → model → layer call, and the probe
// counts and times the work beneath each layer call. Without one it is the
// plain pass whose wall time prices the tracing overhead.
type replayer struct {
	p            *probe
	sp           trace.Span // workload root span; zero for the plain pass
	seed         int64
	reps, frames int
	eng          *runner.Engine
}

// Layer-call names: span names and keys of the probe's busy timers.
const (
	layerCold   = "moments.cold" // fresh traffic.Moments: lag extension + core scan
	layerWarm   = "moments.warm" // same queries again, every lag cached: core scan only
	layerSweep  = "mux.SweepReplicationsEngine"
	layerClosed = "mux.RunReplicationsEngine"
)

func (r *replayer) figure(id string) trace.Span { return r.sp.Child(id) }

// moments runs pass twice on one fresh Moments view of m: the cold pass
// pays for lag extension, the warm pass repeats the identical queries
// against the filled memo, so cold − warm prices the traffic layer and
// warm prices core's scans alone.
func (r *replayer) moments(fig trace.Span, m traffic.Model, pass func(mo *traffic.Moments, cold bool) error) error {
	msp := fig.Child("model " + m.Name())
	before := r.p.tally()
	mo := traffic.NewMoments(r.p.wrap(m))
	if err := r.p.call(msp, layerCold, func() error { return pass(mo, true) }); err != nil {
		return err
	}
	if err := r.p.call(msp, layerWarm, func() error { return pass(mo, false) }); err != nil {
		return err
	}
	if r.p != nil {
		r.p.memoLags.Add(int64(mo.CachedLags()))
	}
	r.p.annotate(msp, before)
	return nil
}

// countCTS records one critical-time-scale scan of the cold pass.
func (r *replayer) countCTS(cold bool) {
	if cold && r.p != nil {
		r.p.ctsCalls.Inc()
	}
}

// bop is experiments' bopSeries: the Bahadur-Rao estimate over grid.
func (r *replayer) bop(fig trace.Span, m traffic.Model, grid []float64) (telemetry.SeriesRecord, error) {
	s := telemetry.SeriesRecord{Label: m.Name(), X: grid}
	err := r.moments(fig, m, func(mo *traffic.Moments, cold bool) error {
		var ys []float64
		for _, msec := range grid {
			op := core.Operating{C: experiments.BopC, B: experiments.MsecToPerSourceCells(msec, experiments.BopC), N: experiments.BopN}
			p, err := core.BahadurRaoMoments(mo, op, 0)
			if err != nil {
				return err
			}
			r.countCTS(cold)
			ys = append(ys, p)
		}
		if cold {
			s.Y = ys
		}
		return nil
	})
	return s, err
}

// clr is experiments' clrSeries: a coupled open-loop buffer sweep.
func (r *replayer) clr(fig trace.Span, m traffic.Model, c float64, grid []float64) (telemetry.SeriesRecord, error) {
	msp := fig.Child("model " + m.Name())
	before := r.p.tally()
	defer r.p.annotate(msp, before)
	buffers := make([]float64, len(grid))
	for i, msec := range grid {
		buffers[i] = experiments.MsecToPerSourceCells(msec, c)
	}
	cfg := mux.Config{
		Model: r.p.wrap(m), N: experiments.BopN, C: c,
		Frames: r.frames, Warmup: r.frames / 20, Seed: r.seed,
	}
	var byBuffer [][]mux.Result
	err := r.p.call(msp, layerSweep, func() (err error) {
		byBuffer, err = mux.SweepReplicationsEngine(context.Background(), r.eng, cfg, buffers, r.reps)
		return err
	})
	if err != nil {
		return telemetry.SeriesRecord{}, err
	}
	s := telemetry.SeriesRecord{Label: m.Name()}
	for i, msec := range grid {
		addPoint(&s, msec, mux.CLREstimate(byBuffer[i], 0.95))
	}
	return s, nil
}

// addPoint appends one simulated grid point as experiments' Series does:
// the replication CLR estimate with its 95% confidence bounds.
func addPoint(s *telemetry.SeriesRecord, msec float64, ci stats.CI) {
	s.X = append(s.X, msec)
	s.Y = append(s.Y, ci.Point)
	s.Lo = append(s.Lo, ci.Low())
	s.Hi = append(s.Hi, ci.High())
}

// closedLoop is experiments' closedLoopSeries over the AIMD-wrapped base:
// one stepped replication batch per buffer. The AIMD controller is built
// on the instrumented base, so the probe times the base draws it scales.
func (r *replayer) closedLoop(fig trace.Span, base traffic.Model, c float64, grid []float64) (telemetry.SeriesRecord, error) {
	ad, err := models.NewAIMD(r.p.wrap(base), models.AIMDConfig{})
	if err != nil {
		return telemetry.SeriesRecord{}, err
	}
	msp := fig.Child("model " + ad.Name())
	before := r.p.tally()
	defer r.p.annotate(msp, before)
	s := telemetry.SeriesRecord{Label: ad.Name()}
	for _, msec := range grid {
		cfg := mux.Config{
			Model: ad, N: experiments.BopN, C: c, B: experiments.MsecToPerSourceCells(msec, c),
			Frames: r.frames, Warmup: r.frames / 20, Seed: r.seed,
		}
		var res []mux.Result
		err := r.p.call(msp, layerClosed, func() (err error) {
			res, err = mux.RunReplicationsEngine(context.Background(), r.eng, cfg, r.reps)
			return err
		})
		if err != nil {
			return telemetry.SeriesRecord{}, err
		}
		addPoint(&s, msec, mux.CLREstimate(res, 0.95))
	}
	return s, nil
}

// zFamily is one Fig 6/7/9 panel's models: Z^a, its DAR(1..3) fits and,
// optionally, L.
func zFamily(a float64, withL bool) ([]traffic.Model, error) {
	z, err := models.NewZ(a)
	if err != nil {
		return nil, err
	}
	out := []traffic.Model{z}
	for _, order := range models.SOrders {
		d, err := models.FitS(z, order)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if withL {
		l, err := models.NewL()
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// panel runs series over ms into one result record.
func (r *replayer) panel(id string, ms []traffic.Model, series func(fig trace.Span, m traffic.Model) (telemetry.SeriesRecord, error)) (telemetry.ResultRecord, error) {
	fig := r.figure(id)
	defer fig.End()
	rec := telemetry.ResultRecord{ID: id}
	for _, m := range ms {
		s, err := series(fig, m)
		if err != nil {
			return rec, fmt.Errorf("%s %s: %w", id, m.Name(), err)
		}
		rec.Series = append(rec.Series, s)
	}
	return rec, nil
}

// replayAnalytic replays Figs 6 and 7, the B-R comparisons that carry the
// analytic workload's cost. Its other figures (Table 1, Figs 1 and 3 and
// the ext* analytic extensions) take ≈5% of the child's time and are
// left to the ledger's unexplained share.
func replayAnalytic(r *replayer) ([]telemetry.ResultRecord, error) {
	var out []telemetry.ResultRecord
	for _, p := range []struct {
		id    string
		a     float64
		withL bool
		grid  []float64
	}{
		{"fig6a", 0.975, true, experiments.BufferGridMsec},
		{"fig6b", 0.7, false, experiments.BufferGridMsec},
		{"fig7a", 0.975, true, experiments.WideBufferGridMsec},
		{"fig7b", 0.7, true, experiments.WideBufferGridMsec},
	} {
		ms, err := zFamily(p.a, p.withL)
		if err != nil {
			return nil, err
		}
		rec, err := r.panel(p.id, ms, func(fig trace.Span, m traffic.Model) (telemetry.SeriesRecord, error) {
			return r.bop(fig, m, p.grid)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// simCLR is clr at the paper's c over the simulation buffer grid.
func (r *replayer) simCLR(fig trace.Span, m traffic.Model) (telemetry.SeriesRecord, error) {
	return r.clr(fig, m, experiments.BopC, experiments.SimBufferGridMsec)
}

// replaySimLRD replays Figs 8 and 9.
func replaySimLRD(r *replayer) ([]telemetry.ResultRecord, error) {
	var vs, zs []traffic.Model
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		vs = append(vs, m)
	}
	for _, a := range models.ZValues {
		m, err := models.NewZ(a)
		if err != nil {
			return nil, err
		}
		zs = append(zs, m)
	}
	z975, err := zFamily(0.975, true)
	if err != nil {
		return nil, err
	}
	z7, err := zFamily(0.7, false)
	if err != nil {
		return nil, err
	}
	var out []telemetry.ResultRecord
	for _, p := range []struct {
		id string
		ms []traffic.Model
	}{{"fig8a", vs}, {"fig8b", zs}, {"fig9a", z975}, {"fig9b", z7}} {
		rec, err := r.panel(p.id, p.ms, r.simCLR)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// replayDAR replays Fig 10: the B-R and large-N asymptotics of
// DAR(1)[Z^0.975] on one shared Moments view, then its simulated CLR.
func replayDAR(r *replayer) ([]telemetry.ResultRecord, error) {
	z, err := models.NewZ(0.975)
	if err != nil {
		return nil, err
	}
	d, err := models.FitS(z, 1)
	if err != nil {
		return nil, err
	}
	fig := r.figure("fig10")
	defer fig.End()
	grid := experiments.SimBufferGridMsec
	br := telemetry.SeriesRecord{Label: "Bahadur-Rao", X: grid}
	ln := telemetry.SeriesRecord{Label: "Large-N", X: grid}
	err = r.moments(fig, d, func(mo *traffic.Moments, cold bool) error {
		var pb, pl []float64
		for _, msec := range grid {
			op := core.Operating{C: experiments.BopC, B: experiments.MsecToPerSourceCells(msec, experiments.BopC), N: experiments.BopN}
			b, err := core.BahadurRaoMoments(mo, op, 0)
			if err != nil {
				return err
			}
			l, err := core.LargeNMoments(mo, op, 0)
			if err != nil {
				return err
			}
			r.countCTS(cold)
			r.countCTS(cold)
			pb, pl = append(pb, b), append(pl, l)
		}
		if cold {
			br.Y, ln.Y = pb, pl
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sim, err := r.simCLR(fig, d)
	if err != nil {
		return nil, err
	}
	sim.Label = "simulated CLR"
	return []telemetry.ResultRecord{{ID: "fig10", Series: []telemetry.SeriesRecord{br, ln, sim}}}, nil
}

// replayClosedLoop replays the extloop figure: each base family open-loop
// through the coupled sweep, then AIMD-wrapped through the stepped engine.
func replayClosedLoop(r *replayer) ([]telemetry.ResultRecord, error) {
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
	fig := r.figure("extloop")
	defer fig.End()
	rec := telemetry.ResultRecord{ID: "extloop"}
	grid := experiments.ClosedLoopBufferGridMsec
	for _, base := range []traffic.Model{v, z, s, l} {
		open, err := r.clr(fig, base, experiments.ClosedLoopC, grid)
		if err != nil {
			return nil, err
		}
		closed, err := r.closedLoop(fig, base, experiments.ClosedLoopC, grid)
		if err != nil {
			return nil, err
		}
		rec.Series = append(rec.Series, open, closed)
	}
	return []telemetry.ResultRecord{rec}, nil
}
