package experiments

import (
	"fmt"

	"repro/internal/models"
	seedpkg "repro/internal/seed"
	"repro/internal/traffic"
)

// lagGrid returns 1..n (inclusive) as float x values with the model ACF.
func acfSeries(m traffic.Model, maxLag int) Series {
	s := Series{Label: m.Name()}
	for k := 1; k <= maxLag; k++ {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, m.ACF(k))
	}
	return s
}

// Table1 regenerates the paper's Table 1 (all derived model parameters).
func Table1() (*models.Table1, error) {
	return models.DeriveTable1()
}

// Fig1 regenerates the conceptual Figure 1: how a and v deform the ACF of
// Z^a and V^v. Two panels: the V^v family and the Z^a family over short
// lags.
func Fig1() ([]*Result, error) {
	const maxLag = 60
	va := &Result{
		ID: "fig1a", Title: "Effect of v on the ACF of V^v (fixed short-term correlations)",
		XLabel: "lag", YLabel: "r(k)",
	}
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		va.Series = append(va.Series, acfSeries(m, maxLag))
	}
	za := &Result{
		ID: "fig1b", Title: "Effect of a on the ACF of Z^a (fixed long-term correlations)",
		XLabel: "lag", YLabel: "r(k)",
	}
	for _, a := range models.ZValues {
		m, err := models.NewZ(a)
		if err != nil {
			return nil, err
		}
		za.Series = append(za.Series, acfSeries(m, maxLag))
	}
	return []*Result{va, za}, nil
}

// Fig2 regenerates Figure 2: aggregate sample paths of Z^0.7 and its
// matched DAR(1) for N = 10 multiplexed sources, exposing the
// burst-within-burst structure of the LRD model.
func Fig2(frames int, seed int64) (*Result, error) {
	if frames < 1 {
		return nil, fmt.Errorf("experiments: frames = %d must be ≥ 1", frames)
	}
	z, err := models.NewZ(0.7)
	if err != nil {
		return nil, err
	}
	s, err := models.FitS(z, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID: "fig2", Title: "Sample paths, N = 10 sources multiplexed",
		XLabel: "frame", YLabel: "aggregate cells/frame",
	}
	for _, m := range []traffic.Model{z, s} {
		gens := make([]traffic.Generator, 10)
		for i, s := range seedpkg.Children(seed, len(gens)) {
			gens[i] = m.NewGenerator(s)
		}
		sr := Series{Label: m.Name()}
		for f := 0; f < frames; f++ {
			var sum float64
			for _, g := range gens {
				sum += g.NextFrame()
			}
			sr.X = append(sr.X, float64(f))
			sr.Y = append(sr.Y, sum)
		}
		res.Series = append(res.Series, sr)
	}
	return res, nil
}

// Fig3 regenerates the four ACF panels of Figure 3:
//
//	(a) V^v for v = 0.67, 1, 1.5 — short lags nearly coincide.
//	(b) Z^a for the four a values plus L — long lags nearly coincide.
//	(c) DAR(p) matched to Z^0.7.
//	(d) DAR(p) matched to Z^0.975.
func Fig3() ([]*Result, error) {
	a := &Result{ID: "fig3a", Title: "ACF of V^v", XLabel: "lag", YLabel: "r(k)"}
	for _, v := range models.VValues {
		m, err := models.NewV(v)
		if err != nil {
			return nil, err
		}
		a.Series = append(a.Series, acfSeries(m, 100))
	}

	b := &Result{ID: "fig3b", Title: "ACF of Z^a and L", XLabel: "lag", YLabel: "r(k)"}
	for _, av := range models.ZValues {
		m, err := models.NewZ(av)
		if err != nil {
			return nil, err
		}
		b.Series = append(b.Series, acfSeries(m, 1000))
	}
	l, err := sharedL()
	if err != nil {
		return nil, err
	}
	b.Series = append(b.Series, acfSeries(l, 1000))

	panels := []*Result{a, b}
	for i, target := range []float64{0.7, 0.975} {
		z, err := models.NewZ(target)
		if err != nil {
			return nil, err
		}
		p := &Result{
			ID:     fmt.Sprintf("fig3%c", 'c'+i),
			Title:  fmt.Sprintf("DAR(p) fits vs %s", z.Name()),
			XLabel: "lag", YLabel: "r(k)",
		}
		p.Series = append(p.Series, acfSeries(z, 50))
		for _, order := range models.SOrders {
			s, err := models.FitS(z, order)
			if err != nil {
				return nil, err
			}
			p.Series = append(p.Series, acfSeries(s, 50))
		}
		panels = append(panels, p)
	}
	return panels, nil
}
