// Package traffictest holds test helpers for traffic.Model
// implementations.
package traffictest

import (
	"math"
	"testing"

	"repro/internal/traffic"
)

// RangedModel is a model with an ACF range method.
type RangedModel interface {
	ACF(k int) float64
	traffic.ACFRanger
}

// CheckACFRange fails t unless m.ACFRange(dst, from) sets every dst[i]
// to the bits of m.ACF(from+i). The starts cover lag 0, lag 1, both
// sides of the Moments block of 1024 lags, a far lag, a lag past the
// DAR(1) fixed point at a = 0.975 (lag 29282) and the 2.1M lags Fig 7's
// wide grid reaches; the lengths run from empty to past two blocks.
func CheckACFRange(t testing.TB, m RangedModel) {
	t.Helper()
	for _, from := range []int{0, 1, 1023, 1024, 5000, 30001, 2_100_000} {
		for _, n := range []int{0, 1, 2, 1023, 1024, 1025, 2100} {
			dst := make([]float64, n)
			m.ACFRange(dst, from)
			for i, got := range dst {
				if want := m.ACF(from + i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ACFRange(len %d, from %d)[%d] = %v, ACF(%d) = %v",
						n, from, i, got, from+i, want)
				}
			}
		}
	}
}
