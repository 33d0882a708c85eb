package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/traffic"
)

// ctsSeries evaluates the critical time scale m*_b across the buffer grid
// (total buffer in msec) for one model, sharing one cached moment view
// across all grid points.
func ctsSeries(m traffic.Model, c float64, n int, grid []float64) (Series, error) {
	s := Series{Label: m.Name()}
	mo := core.Moments(m)
	for _, msec := range grid {
		op := core.Operating{C: c, B: MsecToPerSourceCells(msec, c), N: n}
		res, err := core.CTSMoments(mo, op, 0)
		if err != nil {
			return Series{}, fmt.Errorf("cts %s at %v msec: %w", m.Name(), msec, err)
		}
		s.X = append(s.X, msec)
		s.Y = append(s.Y, float64(res.M))
	}
	return s, nil
}

// Fig4 regenerates Figure 4: the CTS m*_b versus total buffer size for (a)
// the V^v family and (b) the Z^a family, with c = 526, μ = 500, N = 100.
func Fig4() ([]*Result, error) {
	a := &Result{
		ID: "fig4a", Title: "Critical time scale of V^v (c=526, N=100)",
		XLabel: "buffer msec", YLabel: "m*_b (frames)",
	}
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		s, err := ctsSeries(m, Fig4C, Fig4N, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		a.Series = append(a.Series, s)
	}
	b := &Result{
		ID: "fig4b", Title: "Critical time scale of Z^a (c=526, N=100)",
		XLabel: "buffer msec", YLabel: "m*_b (frames)",
	}
	for _, av := range models.ZValues {
		m, err := models.NewZ(av)
		if err != nil {
			return nil, err
		}
		s, err := ctsSeries(m, Fig4C, Fig4N, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		b.Series = append(b.Series, s)
	}
	return []*Result{a, b}, nil
}

// bopSeries evaluates the Bahadur-Rao overflow estimate across the buffer
// grid for one model, sharing one cached moment view across all grid
// points.
func bopSeries(m traffic.Model, c float64, n int, grid []float64) (Series, error) {
	s := Series{Label: m.Name()}
	mo := core.Moments(m)
	for _, msec := range grid {
		op := core.Operating{C: c, B: MsecToPerSourceCells(msec, c), N: n}
		p, err := core.BahadurRaoMoments(mo, op, 0)
		if err != nil {
			return Series{}, fmt.Errorf("bop %s at %v msec: %w", m.Name(), msec, err)
		}
		s.X = append(s.X, msec)
		s.Y = append(s.Y, p)
	}
	return s, nil
}

// Fig5 regenerates Figure 5: Bahadur-Rao BOP versus buffer for (a) V^v and
// (b) Z^a with N = 30, c = 538.
func Fig5() ([]*Result, error) {
	a := &Result{
		ID: "fig5a", Title: "B-R BOP of V^v (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "P(W>B)",
	}
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		s, err := bopSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		a.Series = append(a.Series, s)
	}
	b := &Result{
		ID: "fig5b", Title: "B-R BOP of Z^a (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "P(W>B)",
	}
	for _, av := range models.ZValues {
		m, err := models.NewZ(av)
		if err != nil {
			return nil, err
		}
		s, err := bopSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		b.Series = append(b.Series, s)
	}
	return []*Result{a, b}, nil
}

// fig6Panel builds one efficacy panel: Z^a against its DAR(p) fits, with L
// optionally included (the paper draws L on panel (a) only).
func fig6Panel(id string, targetA float64, includeL bool, grid []float64) (*Result, error) {
	z, err := models.NewZ(targetA)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     id,
		Title:  fmt.Sprintf("B-R BOP: %s vs matched DAR(p) (c=538, N=30)", z.Name()),
		XLabel: "buffer msec", YLabel: "P(W>B)",
	}
	s, err := bopSeries(z, BopC, BopN, grid)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, s)
	for _, order := range models.SOrders {
		d, err := models.FitS(z, order)
		if err != nil {
			return nil, err
		}
		s, err := bopSeries(d, BopC, BopN, grid)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	if includeL {
		l, err := models.NewL()
		if err != nil {
			return nil, err
		}
		s, err := bopSeries(l, BopC, BopN, grid)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig6 regenerates Figure 6: the efficacy of simple Markov models over the
// practical buffer range — (a) Z^0.975 vs DAR(1..3) vs L, (b) Z^0.7 vs
// DAR(1..3).
func Fig6() ([]*Result, error) {
	a, err := fig6Panel("fig6a", 0.975, true, BufferGridMsec)
	if err != nil {
		return nil, err
	}
	b, err := fig6Panel("fig6b", 0.7, false, BufferGridMsec)
	if err != nil {
		return nil, err
	}
	return []*Result{a, b}, nil
}

// Fig7 regenerates Figure 7: the same comparison over an unrealistically
// wide buffer range, exposing where L finally overtakes the Markov fits
// (the origin of the two myths). L appears in both panels here, as in the
// paper.
func Fig7() ([]*Result, error) {
	a, err := fig6Panel("fig7a", 0.975, true, WideBufferGridMsec)
	if err != nil {
		return nil, err
	}
	b, err := fig6Panel("fig7b", 0.7, true, WideBufferGridMsec)
	if err != nil {
		return nil, err
	}
	a.Title += " [wide range]"
	b.Title += " [wide range]"
	return []*Result{a, b}, nil
}
