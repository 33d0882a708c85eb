package traffic

import (
	"math"
	"testing"
)

// geomModel is an AR(1)-like analytic model with r(k) = a^k, counting ACF
// evaluations so the memoisation can be asserted directly.
type geomModel struct {
	a     float64
	calls int
}

func (m *geomModel) Name() string      { return "geom" }
func (m *geomModel) Mean() float64     { return 500 }
func (m *geomModel) Variance() float64 { return 5000 }
func (m *geomModel) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	m.calls++
	return math.Pow(m.a, float64(k))
}
func (m *geomModel) NewGenerator(seed int64) Generator {
	return GeneratorFunc(func() float64 { return m.Mean() })
}

// rangedGeom is geomModel with an ACF range method, counting range calls.
type rangedGeom struct {
	geomModel
	ranges int
}

func (m *rangedGeom) ACFRange(dst []float64, from int) {
	m.ranges++
	for i := range dst {
		dst[i] = m.ACF(from + i)
	}
}

// fgnModel has the exact-LRD ACF r(k) = ½(|k+1|^2H − 2|k|^2H + |k−1|^2H),
// whose V(m) has the closed form σ²·m^{2H}.
type fgnModel struct{ h float64 }

func (m fgnModel) Name() string      { return "fgn" }
func (m fgnModel) Mean() float64     { return 500 }
func (m fgnModel) Variance() float64 { return 5000 }
func (m fgnModel) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	p := func(x float64) float64 { return math.Pow(x, 2*m.h) }
	fk := float64(k)
	return 0.5 * (p(fk+1) - 2*p(fk) + p(fk-1))
}
func (m fgnModel) NewGenerator(seed int64) Generator {
	return GeneratorFunc(func() float64 { return m.Mean() })
}

// directVarSum is the O(m) textbook evaluation
// V(m) = σ²[m + 2·Σ_{i=1..m−1} (m−i)·r(i)].
func directVarSum(m Model, n int) float64 {
	fm := float64(n)
	var s float64
	for i := 1; i < n; i++ {
		s += (fm - float64(i)) * m.ACF(i)
	}
	return m.Variance() * (fm + 2*s)
}

func TestMomentsVarSumMatchesDirectSum(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Model
	}{
		{"geometric", &geomModel{a: 0.9}},
		{"fgn", fgnModel{h: 0.85}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mo := NewMoments(tc.m)
			for lag := 1; lag <= 1000; lag++ {
				got := mo.VarSum(lag)
				want := directVarSum(tc.m, lag)
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Fatalf("V(%d) = %v, direct sum %v", lag, got, want)
				}
			}
		})
	}
}

func TestMomentsVarSumFGNClosedForm(t *testing.T) {
	h := 0.85
	m := fgnModel{h: h}
	mo := NewMoments(m)
	for _, lag := range []int{1, 2, 10, 100, 1000} {
		want := m.Variance() * math.Pow(float64(lag), 2*h)
		if got := mo.VarSum(lag); math.Abs(got-want) > 1e-8*want {
			t.Fatalf("V(%d) = %v, closed form σ²m^2H = %v", lag, got, want)
		}
	}
}

func TestMomentsMemoisesACF(t *testing.T) {
	m := &geomModel{a: 0.5}
	mo := NewMoments(m)
	mo.VarSum(1001) // extends through lag 1000
	calls := m.calls
	if calls > 1000 {
		t.Fatalf("extension cost %d ACF calls, want ≤ 1000", calls)
	}
	// Every further query in range must be a pure lookup.
	for lag := 1; lag <= 1001; lag++ {
		mo.VarSum(lag)
		mo.ACF(lag - 1)
		mo.SumACF(lag - 1)
	}
	if m.calls != calls {
		t.Fatalf("cached queries re-evaluated the ACF (%d → %d calls)", calls, m.calls)
	}
	if got := mo.CachedLags(); got < 1000 {
		t.Fatalf("CachedLags() = %d, want ≥ 1000", got)
	}
}

func TestMomentsModelDelegation(t *testing.T) {
	m := &geomModel{a: 0.9}
	mo := NewMoments(m)
	if mo.Name() != m.Name() || mo.Mean() != m.Mean() || mo.Variance() != m.Variance() {
		t.Fatal("Moments does not delegate Name/Mean/Variance")
	}
	if mo.Model() != Model(m) {
		t.Fatal("Model() lost the wrapped model")
	}
	if mo.NewGenerator(1).NextFrame() != m.Mean() {
		t.Fatal("NewGenerator does not delegate")
	}
	if NewMoments(mo) != mo {
		t.Fatal("NewMoments stacked a second cache on a *Moments")
	}
	if mo.ACF(-5) != mo.ACF(5) {
		t.Fatal("ACF not symmetric in lag")
	}
	if mo.VarSum(0) != 0 || mo.AggVariance(0) != 0 {
		t.Fatal("non-positive horizons should yield 0")
	}
	if got, want := mo.AggVariance(7), mo.VarSum(7)/49; got != want {
		t.Fatalf("AggVariance(7) = %v, want V(7)/49 = %v", got, want)
	}
}

// TestMomentsRangeFillMatchesLagByLag fills one view through a range
// method and another lag by lag with the same queries, some on either
// side of a block boundary: the memoised ACF and both prefix sums must
// agree bit for bit, the range fill must stop at the end of a block with
// one range call per block, and the lag-by-lag fill must stop exactly at
// the lag asked for. A lag-by-lag snapshot that ends mid-block must stay
// exact while later extension fills the rest of its block.
func TestMomentsRangeFillMatchesLagByLag(t *testing.T) {
	rm := &rangedGeom{geomModel: geomModel{a: 0.999}}
	ranged, lagged := NewMoments(rm), NewMoments(&geomModel{a: 0.999})
	var snap Prefix
	for _, m := range []int{1, 3000, 2, 1023, 1024, 1025, 1026, 2047, 2048, 7000} {
		if a, b := ranged.VarSum(m), lagged.VarSum(m); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("V(%d): range fill %v, lag-by-lag %v", m, a, b)
		}
		if m == 3000 {
			snap = lagged.Prefix(0)
		}
	}
	if got := snap.MaxM(); got != 3000 {
		t.Fatalf("mid-block snapshot holds V(m) through m = %d, want 3000", got)
	}
	ranged.Prefix(7500)
	lagged.Prefix(7500)
	if got := lagged.CachedLags(); got != 7500 {
		t.Errorf("lag-by-lag fill cached %d lags, want exactly 7500", got)
	}
	if got := ranged.CachedLags(); got != 8*rangeChunk-1 {
		t.Errorf("range fill cached %d lags, want %d (through the end of lag 7500's block)", got, 8*rangeChunk-1)
	}
	if rm.ranges > 8 || rm.calls != ranged.CachedLags() {
		t.Errorf("range fill made %d range calls over %d ACF evaluations for %d lags",
			rm.ranges, rm.calls, ranged.CachedLags())
	}
	for k := 0; k <= 7500; k++ {
		for _, q := range []struct {
			name string
			f    func(*Moments, int) float64
		}{{"ACF", (*Moments).ACF}, {"SumACF", (*Moments).SumACF}, {"VarSum", (*Moments).VarSum}} {
			if a, b := q.f(ranged, k), q.f(lagged, k); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s(%d): range fill %v, lag-by-lag %v", q.name, k, a, b)
			}
		}
		if k > 0 && k <= snap.MaxM() {
			if a, b := snap.VarSum(k), lagged.VarSum(k); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("V(%d): mid-block snapshot %v, view %v", k, a, b)
			}
		}
	}
	if got := lagged.CachedLags(); got != 7500 {
		t.Errorf("lookups below the memo's length extended it to %d lags", got)
	}
}

// TestPrefixSnapshot checks that a snapshot answers V(m) exactly as the
// view does, holds at least the lags asked for, and is not changed by
// later extension.
func TestPrefixSnapshot(t *testing.T) {
	mo := NewMoments(fgnModel{h: 0.85})
	p := mo.Prefix(99)
	if p.MaxM() < 100 {
		t.Fatalf("Prefix(99).MaxM() = %d, want ≥ 100", p.MaxM())
	}
	before := p.VarSum(p.MaxM())
	mo.VarSum(50000)
	if got := p.VarSum(p.MaxM()); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("snapshot changed under extension: %v → %v", before, got)
	}
	for m := 1; m <= p.MaxM(); m++ {
		if a, b := p.VarSum(m), mo.VarSum(m); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("V(%d): snapshot %v, view %v", m, a, b)
		}
	}
	if (Prefix{}).MaxM() != 0 {
		t.Fatal("zero Prefix should hold no lags")
	}
}
