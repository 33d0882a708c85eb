package diag

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

func TestAssess(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name      string
		xs        []float64
		outcome   Outcome
		n, nonFin int
		relCI     float64 // compared only when undefined (+Inf)
	}{
		{"all zero, n=1", make([]float64, 1), NoLoss, 1, 0, inf},
		{"all zero, n=2", make([]float64, 2), NoLoss, 2, 0, inf},
		{"all zero, n=6", make([]float64, 6), NoLoss, 6, 0, inf},
		{"all zero, n=60", make([]float64, 60), NoLoss, 60, 0, inf},
		{"one replication with loss", []float64{3e-6}, Unconverged, 1, 0, inf},
		{"NaN replication", []float64{1, 1, math.NaN()}, Unconverged, 2, 1, 0},
		{"zeros and a NaN", []float64{0, 0, math.NaN()}, Unconverged, 2, 1, inf},
		{"zeros and +Inf", []float64{0, math.Inf(1)}, Unconverged, 1, 1, inf},
		{"zero mean with spread", []float64{1, -1}, Unconverged, 2, 0, inf},
		{"empty", nil, Unconverged, 0, 0, inf},
		{"tight", []float64{1.0, 1.02, 0.99, 1.01, 1.0, 0.98}, Converged, 6, 0, 0},
		{"spread", []float64{1e-7, 5e-6, 2e-8, 9e-6}, Unconverged, 4, 0, 0},
		{"constant loss", []float64{5, 5, 5}, Converged, 3, 0, 0},
	}
	for _, tc := range cases {
		v := Assess(tc.xs)
		if v.Outcome != tc.outcome || v.N != tc.n || v.NonFinite != tc.nonFin {
			t.Errorf("%s: %+v, want outcome %s, n %d, non-finite %d", tc.name, v, tc.outcome, tc.n, tc.nonFin)
		}
		if math.IsInf(tc.relCI, 1) && !math.IsInf(v.RelCI, 1) {
			t.Errorf("%s: RelCI = %v, want undefined (+Inf)", tc.name, v.RelCI)
		}
		if v.String() == "" {
			t.Errorf("%s: empty verdict string", tc.name)
		}
	}
}

// TestAssessReadsReplicationCI holds RelCI to the interval the series'
// Lo/Hi come from, bit for bit.
func TestAssessReadsReplicationCI(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		xs := make([]float64, 2+rng.Intn(60))
		scale := math.Pow(10, -8*rng.Float64())
		for i := range xs {
			xs[i] = scale * rng.ExpFloat64()
		}
		ci := stats.ReplicationCI(xs, 0.95)
		want := ci.Half / math.Abs(ci.Point)
		v := Assess(xs)
		if math.Float64bits(v.RelCI) != math.Float64bits(want) || math.Float64bits(v.Mean) != math.Float64bits(ci.Point) {
			t.Fatalf("xs %v: RelCI %v, mean %v; ReplicationCI gives %v, %v", xs, v.RelCI, v.Mean, want, ci.Point)
		}
		if (v.Outcome == Converged) != (want <= maxRelCI) {
			t.Fatalf("xs %v: outcome %s at RelCI %v", xs, v.Outcome, want)
		}
	}
}

func TestProbe(t *testing.T) {
	p := NewProbe("test.site")
	if NewProbe("test.site") != p {
		t.Fatal("probe registry not shared per site")
	}
	if !p.Check(1.5) || !p.Check(-2) || !p.Check(0) {
		t.Error("finite values flagged")
	}
	if p.Check(math.NaN()) {
		t.Error("NaN passed Check")
	}
	if p.Check(math.Inf(-1)) {
		t.Error("-Inf passed Check")
	}
	p.Check(1e-310)         // subnormal: recorded but finite
	p.CheckPositive(0)      // exact underflow
	p.CheckPositive(1e-300) // fine
	c := p.Counts()
	if c.NaN != 1 || c.Inf != 1 || c.Subnormal != 1 || c.Underflow != 1 {
		t.Errorf("counts = %+v", c)
	}
	// The snapshot includes only firing probes.
	NewProbe("test.silent")
	found := false
	for _, h := range HealthSnapshot() {
		if h.Site == "test.silent" {
			t.Error("silent probe in snapshot")
		}
		if h.Site == "test.site" {
			found = true
		}
	}
	if !found {
		t.Error("firing probe missing from snapshot")
	}
	// Violations are mirrored into the default telemetry registry.
	mirrored := false
	for _, s := range telemetry.Default.Snapshot() {
		if s.Name == "diag_health_total" && s.Labels["site"] == "test.site" {
			mirrored = true
		}
	}
	if !mirrored {
		t.Error("violations not mirrored into telemetry.Default")
	}
}
