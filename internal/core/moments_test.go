package core

import (
	"testing"

	"repro/internal/models"
	"repro/internal/traffic"
)

// sliceModel is deliberately non-comparable (slice field, value receiver)
// to exercise the registry's comparability guard.
type sliceModel struct {
	w whiteNoise
	r []float64
}

func (s sliceModel) Name() string                              { return "slice" }
func (s sliceModel) Mean() float64                             { return s.w.Mean() }
func (s sliceModel) Variance() float64                         { return s.w.Variance() }
func (s sliceModel) ACF(k int) float64                         { return s.w.ACF(k) }
func (s sliceModel) NewGenerator(seed int64) traffic.Generator { return nil }

func TestMomentsRegistry(t *testing.T) {
	p := mustDAR1(t, 0.8)
	mo := Moments(p)
	if mo == nil {
		t.Fatal("nil moments view")
	}
	if Moments(p) != mo {
		t.Fatal("same model did not share its cached view")
	}
	if Moments(mo) != mo {
		t.Fatal("a *Moments should be returned unchanged")
	}
	q := mustDAR1(t, 0.8)
	if Moments(q) == mo {
		t.Fatal("distinct model values must not share a view")
	}
	// Non-comparable dynamic types fall back to private views without
	// panicking on the map key.
	s := sliceModel{w: whiteNoise{500, 5000}, r: []float64{1}}
	a, b := Moments(s), Moments(s)
	if a == nil || b == nil || a == b {
		t.Fatal("non-comparable model should get fresh private views")
	}
}

// TestCTSMomentsBitIdentical re-runs the legacy incremental scan —
// VarianceOfSum advanced lag by lag with the stop rule inline — and
// demands exact equality with the cached-Moments path for both a Markov
// and an LRD-composite ACF at several operating points.
func TestCTSMomentsBitIdentical(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []traffic.Model{mustDAR1(t, 0.9), z} {
		for _, b := range []float64{0, 10, 100, 1000} {
			op := Operating{C: 538, B: b, N: 30}
			legacy := func() CTSResult {
				acc := NewVarianceOfSum(m)
				drift := op.C - m.Mean()
				obj := func(mm int) float64 {
					num := op.B + float64(mm)*drift
					return num * num / (2 * acc.Value())
				}
				best := CTSResult{M: 1, Rate: obj(1)}
				for mm := 2; mm <= DefaultMaxM; mm++ {
					acc.Advance()
					v := obj(mm)
					if v < best.Rate {
						best.M, best.Rate = mm, v
						continue
					}
					if mm >= 4*best.M+64 && v >= 3*best.Rate {
						best.Converged = true
						return best
					}
				}
				return best
			}()
			got, err := CTS(m, op, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != legacy {
				t.Fatalf("%s b=%v: CTS %+v != legacy incremental scan %+v",
					m.Name(), b, got, legacy)
			}
		}
	}
}

// TestCTSMomentsWarmScanAllocatesNothing fences the scan's hot loop:
// once the view holds the lags a scan needs, a CTS scan reads V(m) from
// a Prefix snapshot and allocates nothing.
func TestCTSMomentsWarmScanAllocatesNothing(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	mo := traffic.NewMoments(z)
	op := Operating{C: 538, B: 1000, N: 30}
	if _, err := CTSMoments(mo, op, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := CTSMoments(mo, op, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm CTSMoments scan: %v allocations per run, want 0", allocs)
	}
}
