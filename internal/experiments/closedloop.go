package experiments

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/traffic"
)

// ClosedLoopBufferGridMsec is the buffer grid of the closed-loop figure.
// It spans the same practical range as SimBufferGridMsec with fewer
// points. Like the open-loop grids it is one coupled sweep: each
// replication draws the sources' open-loop base path once, and every
// buffer size scales it by its own AIMD controllers.
var ClosedLoopBufferGridMsec = []float64{0, 1, 2, 4, 8, 14, 20}

// ClosedLoopC is the per-source bandwidth of the closed-loop figure,
// cells/frame. The paper's c = 538 (utilisation ≈ 0.93) leaves CLR near
// the resolution floor of a smoke-scale run and gives a controller that
// never exceeds its encoded rate almost nothing to react to; at c = 510
// (≈ 98% offered load) the open-loop families lose ~1e-3 of their cells
// and the open-vs-adaptive gap is the figure's subject, not noise.
const ClosedLoopC float64 = 510

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
// Both series of a family run through the coupled sweep: one arrival
// path per replication for the open-loop twin, one base path per
// replication for the adaptive series, whose controllers at each buffer
// are fed back every frame. Both fan replications over cfg's engine and
// are bit-identical for any worker count.
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
		closed, err := clrSeries(ad, ClosedLoopC, BopN, ClosedLoopBufferGridMsec, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, closed)
	}
	return res, nil
}
