package models

import (
	"math"
	"testing"

	"repro/internal/traffic"
	"repro/internal/traffic/traffictest"
)

// lagOnly hides a model's ACF range method, so a Moments view over it
// fills its memo lag by lag through ACF.
type lagOnly struct{ traffic.Model }

func rangedModels(t *testing.T) []traffictest.RangedModel {
	t.Helper()
	v, err := NewV(0.67)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewL()
	if err != nil {
		t.Fatal(err)
	}
	return []traffictest.RangedModel{v, z, l}
}

// TestACFRangeBitIdentical holds the Composite range (V^0.67, Z^0.975)
// and L's FBNDP range to their ACFs bit for bit.
func TestACFRangeBitIdentical(t *testing.T) {
	for _, m := range rangedModels(t) {
		traffictest.CheckACFRange(t, m)
	}
}

// TestMomentsRangeFillBitIdentical fills one Moments view through the
// models' range methods and another lag by lag, with queries that jump
// across fill chunks, and demands identical ACF, ACF prefix sums and
// V(m) at every lag.
func TestMomentsRangeFillBitIdentical(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range rangedModels(t) {
		tm := m.(traffic.Model)
		ranged, lagged := traffic.NewMoments(tm), traffic.NewMoments(lagOnly{tm})
		for _, k := range []int{1, 3000, 2, 1024, 1025, 9000} {
			ranged.VarSum(k)
			lagged.VarSum(k)
		}
		for k := 0; k <= 9000; k++ {
			if !same(ranged.ACF(k), lagged.ACF(k)) || !same(ranged.SumACF(k), lagged.SumACF(k)) ||
				!same(ranged.VarSum(k+1), lagged.VarSum(k+1)) {
				t.Fatalf("%s: lag %d differs between range and lag-by-lag fills", tm.Name(), k)
			}
		}
	}
}
