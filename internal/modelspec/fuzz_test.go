package modelspec

import (
	"math"
	"testing"
)

// FuzzParse feeds Parse arbitrary specs. The seed corpus in
// testdata/fuzz/FuzzParse covers every spec form, nested aimd: included.
// Parse must never panic, and every model it accepts must report a finite
// mean and a finite, non-negative variance: the analytic layer divides by
// both, and a NaN there turns every downstream figure into NaN.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			return
		}
		if mean := m.Mean(); math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Fatalf("%q: accepted with mean %v", spec, mean)
		}
		if v := m.Variance(); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%q: accepted with variance %v", spec, v)
		}
	})
}
