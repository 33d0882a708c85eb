package traffic

import (
	"math"
	"testing"
)

func TestFeedbackOccupancy(t *testing.T) {
	cases := []struct {
		name string
		fb   Feedback
		want float64
	}{
		{"finite buffer", Feedback{W: 25, Buffer: 100, Utilization: 0.4}, 0.25},
		{"empty finite buffer", Feedback{W: 0, Buffer: 100, Utilization: 0.4}, 0},
		{"zero buffer falls back to utilization", Feedback{W: 0, Buffer: 0, Utilization: 0.8}, 0.8},
		{"infinite buffer falls back to utilization",
			Feedback{W: 1e6, Buffer: math.Inf(1), Utilization: 0.95}, 0.95},
	}
	for _, tc := range cases {
		if got := tc.fb.Occupancy(); got != tc.want {
			t.Errorf("%s: Occupancy() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// stubFeedbackGen is a minimal closed-loop generator.
type stubFeedbackGen struct{ observed int }

func (g *stubFeedbackGen) NextFrame() float64  { return 1 }
func (g *stubFeedbackGen) Observe(fb Feedback) { g.observed++ }

// fbStubModel manufactures gen on every NewGenerator call.
type fbStubModel struct{ gen Generator }

func (m fbStubModel) Name() string                 { return "stub" }
func (m fbStubModel) Mean() float64                { return 1 }
func (m fbStubModel) Variance() float64            { return 0 }
func (m fbStubModel) ACF(k int) float64            { return 0 }
func (m fbStubModel) NewGenerator(int64) Generator { return m.gen }

// splitStubModel is a closed-loop model in base/controller form.
type splitStubModel struct{ fbStubModel }

func (m splitStubModel) Base() Model               { return m.fbStubModel }
func (m splitStubModel) NewController() Controller { return nil }

func TestIsClosedLoopModel(t *testing.T) {
	if IsClosedLoopModel(nil) {
		t.Fatal("nil model reported closed-loop")
	}
	if IsClosedLoopModel(fbStubModel{gen: GeneratorFunc(func() float64 { return 1 })}) {
		t.Fatal("open-loop model reported closed-loop")
	}
	// Closed-loop generators alone do not make a closed-loop model: it
	// must split into a base and controllers to share a buffer sweep.
	if IsClosedLoopModel(fbStubModel{gen: &stubFeedbackGen{}}) {
		t.Fatal("model without a base/controller split reported closed-loop")
	}
	if !IsClosedLoopModel(splitStubModel{fbStubModel{gen: &stubFeedbackGen{}}}) {
		t.Fatal("closed-loop model not detected")
	}
}
