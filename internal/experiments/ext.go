package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dar"
	"repro/internal/fbndp"
	"repro/internal/fgn"
	"repro/internal/mginf"
	"repro/internal/models"
	"repro/internal/traffic"
)

// The ext* experiments go beyond the paper's published evaluation into the
// directions its §6 sketches: MPEG-style periodic sources (§6.2),
// alternative LRD substrates (the §4.1 related-work models), and
// non-Gaussian marginals (§6.1).

// ExtMPEG compares the CTS and Bahadur-Rao BOP of an MPEG GOP-modulated
// source against its unmodulated base (paper §6.2 future work). The
// modulation adds variance and periodic correlation ripples; the CTS
// machinery applies unchanged and shows how much extra buffer the
// periodicity costs.
func ExtMPEG() ([]*Result, error) {
	z, err := models.NewZ(0.9)
	if err != nil {
		return nil, err
	}
	w, err := models.GOPWeights(models.TypicalGOP, 5, 3, 1)
	if err != nil {
		return nil, err
	}
	mp, err := models.NewMPEG(z, w)
	if err != nil {
		return nil, err
	}
	pair := []traffic.Model{z, mp}

	cts := &Result{
		ID: "extmpeg-cts", Title: "CTS: MPEG GOP modulation vs base (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "m*_b (frames)",
	}
	bop := &Result{
		ID: "extmpeg-bop", Title: "B-R BOP: MPEG GOP modulation vs base (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "P(W>B)",
	}
	for _, m := range pair {
		s, err := ctsSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		cts.Series = append(cts.Series, s)
		s, err = bopSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		bop.Series = append(bop.Series, s)
	}
	return []*Result{cts, bop}, nil
}

// ExtSubstrates compares the CTS and BOP of four LRD constructions at
// matched Hurst parameter (0.9) and identical first two moments: the
// paper's composite Z^0.9, a pure FBNDP, exact fractional Gaussian noise,
// and the M/G/∞ (Cox) model behind the hyperbolic-decay results of §4.1.
// The spread across substrates at equal H is itself the paper's message:
// the Hurst parameter alone does not determine queueing behaviour.
func ExtSubstrates() ([]*Result, error) {
	z, err := models.NewZ(0.9)
	if err != nil {
		return nil, err
	}
	t0, err := fbndp.SolveT0(models.Mean, models.Variance, 0.8, models.Ts)
	if err != nil {
		return nil, err
	}
	pure, err := fbndp.NewModel(fbndp.Params{
		Alpha: 0.8, Lambda: models.Mean / models.Ts, T0: t0, M: models.ML, Ts: models.Ts,
	})
	if err != nil {
		return nil, err
	}
	pure.SetName("FBNDP(H=0.9)")
	fg, err := fgn.NewModel(0.9, models.Mean, models.Variance)
	if err != nil {
		return nil, err
	}
	cox, err := mginf.NewFromMoments(models.Mean, models.Variance, 0.9, models.Ts, models.Ts)
	if err != nil {
		return nil, err
	}
	ms := []traffic.Model{z, pure, fg, cox}

	cts := &Result{
		ID: "extsub-cts", Title: "CTS across LRD substrates at H=0.9 (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "m*_b (frames)",
	}
	bop := &Result{
		ID: "extsub-bop", Title: "B-R BOP across LRD substrates at H=0.9 (c=538, N=30)",
		XLabel: "buffer msec", YLabel: "P(W>B)",
	}
	for _, m := range ms {
		s, err := ctsSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		cts.Series = append(cts.Series, s)
		s, err = bopSeries(m, BopC, BopN, BufferGridMsec)
		if err != nil {
			return nil, err
		}
		bop.Series = append(bop.Series, s)
	}
	return []*Result{cts, bop}, nil
}

// ExtWeibull verifies the paper's Eq. 6 (Appendix): for exact-LRD Gaussian
// sources the closed-form Weibull approximation must coincide with the
// numerically minimised Bahadur-Rao asymptotic, since FGN has exactly
// V(m) = σ²m^{2H}. One panel per Hurst parameter, three series each
// (Weibull Eq. 6, Bahadur-Rao, Large-N).
func ExtWeibull() ([]*Result, error) {
	var out []*Result
	for _, h := range []float64{0.7, 0.86, 0.9} {
		m, err := fgn.NewModel(h, models.Mean, models.Variance)
		if err != nil {
			return nil, err
		}
		res := &Result{
			ID:     fmt.Sprintf("extweibull-h%02.0f", h*100),
			Title:  fmt.Sprintf("Eq. 6 Weibull vs numeric asymptotics, FGN H=%.2f (c=538, N=30)", h),
			XLabel: "buffer msec", YLabel: "P(W>B)",
		}
		wb := Series{Label: "weibull-eq6"}
		params := core.LRDParams{H: h, G: 1, Mu: models.Mean, Sigma2: models.Variance}
		for _, msec := range BufferGridMsec[1:] { // J → 0 at zero buffer
			op := core.Operating{C: BopC, B: MsecToPerSourceCells(msec, BopC), N: BopN}
			p, err := core.WeibullLRD(params, op)
			if err != nil {
				return nil, err
			}
			wb.X = append(wb.X, msec)
			wb.Y = append(wb.Y, p)
		}
		res.Series = append(res.Series, wb)
		br, err := bopSeries(m, BopC, BopN, BufferGridMsec[1:])
		if err != nil {
			return nil, err
		}
		br.Label = "bahadur-rao"
		res.Series = append(res.Series, br)
		ln := Series{Label: "large-N"}
		mo := core.Moments(m)
		for _, msec := range BufferGridMsec[1:] {
			op := core.Operating{C: BopC, B: MsecToPerSourceCells(msec, BopC), N: BopN}
			p, err := core.LargeNMoments(mo, op, 0)
			if err != nil {
				return nil, err
			}
			ln.X = append(ln.X, msec)
			ln.Y = append(ln.Y, p)
		}
		res.Series = append(res.Series, ln)
		out = append(out, res)
	}
	return out, nil
}

// ExtMarginals measures the simulated CLR of DAR(1) sources that share the
// correlation structure (ρ = 0.9) and the first two moments but differ in
// marginal distribution: Gaussian, Gamma and negative binomial. The paper
// argues (§6.1) its conclusions survive heavier-tailed marginals once the
// operating point is adjusted; this experiment quantifies how much the
// marginal alone moves the loss curve.
func ExtMarginals(cfg SimConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type entry struct {
		label string
		marg  dar.Marginal
	}
	entries := []entry{
		{"gaussian", dar.GaussianMarginal(models.Mean, models.Variance)},
		{"gamma", dar.GammaMarginal(models.Mean, models.Variance)},
		{"negbinomial", dar.NegativeBinomialMarginal(models.Mean, models.Variance)},
	}
	res := &Result{
		ID:     "extmarg",
		Title:  "Simulated CLR by marginal at matched moments and ACF (DAR(1) ρ=0.9, c=538, N=30)",
		XLabel: "buffer msec", YLabel: "CLR",
	}
	for _, e := range entries {
		p, err := dar.NewDAR1(0.9, e.marg)
		if err != nil {
			return nil, err
		}
		p.SetName(e.label)
		s, err := clrSeries(p, BopC, BopN, SimBufferGridMsec, cfg)
		if err != nil {
			return nil, fmt.Errorf("marginal %s: %w", e.label, err)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
