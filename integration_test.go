// Integration tests: cross-module checks that exercise the whole pipeline
// the way cmd/repro and the examples do — model specification, analytic
// machinery and simulation agreeing with each other.
package repro_test

import (
	"math"
	"testing"

	"repro/internal/cac"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hurst"
	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/mux"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// TestPipelineSpecToSimulation drives one model from command-line spec
// through CTS, asymptotics and simulation, checking cross-module
// consistency (asymptotic upper-bounds simulated BOP order-of-magnitude,
// CLR below BOP).
func TestPipelineSpecToSimulation(t *testing.T) {
	m, err := modelspec.Parse("dar:0.975:1")
	if err != nil {
		t.Fatal(err)
	}
	op := core.Operating{C: 538, B: 26.9, N: 30}

	cts, err := core.CTS(m, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cts.M < 1 || cts.M > 100 {
		t.Fatalf("implausible CTS %d for a 2 ms buffer", cts.M)
	}
	br, err := core.BahadurRao(m, op, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Infinite-buffer simulation of P(W > N·b): the B-R estimate must land
	// within an order of magnitude (it tracked within ~1.5× in calibration;
	// DAR's non-Gaussian burst structure costs a little).
	bop, err := mux.RunBOP(mux.BOPConfig{
		Model: m, N: op.N, C: op.C, Frames: 400000, Warmup: 5000, Seed: 3,
		Thresholds: []float64{float64(op.N) * op.B},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := bop.Prob[0]
	if sim <= 0 {
		t.Fatal("no overflow observed; scale too small for this test")
	}
	if ratio := sim / br; ratio < 0.1 || ratio > 10 {
		t.Fatalf("simulated BOP %v vs B-R %v: ratio %v outside [0.1, 10]", sim, br, ratio)
	}

	// Finite-buffer CLR is far below the overflow probability (the paper's
	// Fig 10 shows ≈2 orders).
	clr, err := mux.Run(mux.Config{
		Model: m, N: op.N, C: op.C, B: op.B,
		Frames: 400000, Warmup: 5000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clr.CLR >= sim {
		t.Fatalf("CLR %v should sit well below BOP %v", clr.CLR, sim)
	}
}

// TestPipelineHeadline replays the paper's headline comparison end to end
// at small scale: the DAR(1) fit of an LRD source admits nearly the same
// number of connections, and their analytic loss curves agree at small
// buffers.
func TestPipelineHeadline(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := models.FitS(z, 1)
	if err != nil {
		t.Fatal(err)
	}
	link := cac.Link{CellsPerSec: 365566, Ts: models.Ts, Delay: 0.010}
	nz, err := cac.Admissible(z, link, 1e-6, cac.BahadurRao)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := cac.Admissible(d, link, 1e-6, cac.BahadurRao)
	if err != nil {
		t.Fatal(err)
	}
	if diff := nd - nz; diff < -2 || diff > 2 {
		t.Fatalf("admission gap %d connections (Z %d, DAR %d)", diff, nz, nd)
	}
}

// TestPipelineGeneratorsAreWhatTheyClaim cross-checks every generator
// family against the hurst estimators and its own analytic moments — the
// full zoo in one table-driven sweep.
func TestPipelineGeneratorsAreWhatTheyClaim(t *testing.T) {
	// Bands are wide: single-path Hurst slopes and LRD sample means carry
	// stable-law noise (the per-substrate packages test tighter statistics
	// with replication averaging). What matters here is the SRD/LRD
	// separation across the zoo through one shared pipeline.
	cases := []struct {
		spec   string
		minH   float64
		maxH   float64
		frames int
	}{
		{"dar1:0.9", 0.40, 0.65, 150000},
		{"fgn:0.9", 0.80, 1.00, 1 << 17},
		{"z:0.9", 0.67, 1.02, 200000},
		{"mginf:0.9", 0.67, 1.02, 200000},
	}
	for _, c := range cases {
		m, err := modelspec.Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var meanSum, hSum float64
		const seeds = 3
		for seed := int64(1); seed <= seeds; seed++ {
			xs := traffic.Generate(m.NewGenerator(seed*911), c.frames)
			meanSum += stats.Mean(xs)
			h, err := hurst.VarianceTime(xs, 16, len(xs)/32)
			if err != nil {
				t.Fatal(err)
			}
			hSum += h
		}
		if got := meanSum / seeds; math.Abs(got-m.Mean())/m.Mean() > 0.1 {
			t.Errorf("%s: mean %v vs analytic %v", c.spec, got, m.Mean())
		}
		if h := hSum / seeds; h < c.minH || h > c.maxH {
			t.Errorf("%s: estimated H %v outside [%v, %v]", c.spec, h, c.minH, c.maxH)
		}
	}
}

// TestPipelineExperimentRendering pushes one full experiment through the
// Render/CSV path, as cmd/repro does. TestAnalyticOutputsCommitted pins
// the rendered bytes of every analytic figure, Fig4 included.
func TestPipelineExperimentRendering(t *testing.T) {
	rs, err := experiments.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Render()) < 100 || len(r.CSV()) < 100 {
			t.Fatalf("%s: implausibly short rendering", r.ID)
		}
	}
	tab, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.String()) < 200 {
		t.Fatal("table rendering too short")
	}
}
