package telemetry

import (
	"encoding/json"
	"math"
	"testing"
)

// Zero and negative observations are finite: they must participate in
// count/sum/min/max without corrupting anything.
func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3.5)
	h.Observe(2.0)

	st := h.Stats()
	if st.Count != 3 {
		t.Fatalf("Count = %d, want 3", st.Count)
	}
	if st.NonFinite != 0 {
		t.Fatalf("NonFinite = %d, want 0", st.NonFinite)
	}
	if st.Min != -3.5 || st.Max != 2.0 {
		t.Fatalf("Min/Max = %v/%v, want -3.5/2.0", st.Min, st.Max)
	}
	if got, want := st.Sum, -1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

// NaN and ±Inf observations must be quarantined: counted in NonFinite and
// excluded from every other statistic, leaving the snapshot
// JSON-encodable.
func TestHistogramNonFiniteQuarantine(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))

	if got := h.NonFinite(); got != 3 {
		t.Fatalf("NonFinite = %d, want 3", got)
	}
	st := h.Stats()
	if st.Count != 3 {
		t.Fatalf("Count = %d, want 3 (non-finite must not count)", st.Count)
	}
	if st.Min != 1 || st.Max != 3 {
		t.Fatalf("Min/Max = %v/%v, want 1/3 (±Inf must not widen range)", st.Min, st.Max)
	}
	if math.Abs(st.Sum-6) > 1e-12 {
		t.Fatalf("Sum = %v, want 6 (NaN must not poison sum)", st.Sum)
	}
	for _, v := range []float64{st.Sum, st.Min, st.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("stats contain non-finite value %v: %+v", v, st)
		}
	}
}

// An all-non-finite histogram reports empty stats (plus the quarantine
// count) rather than Inf min/max.
func TestHistogramOnlyNonFinite(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	st := h.Stats()
	if st.Count != 0 || st.NonFinite != 2 {
		t.Fatalf("Count/NonFinite = %d/%d, want 0/2", st.Count, st.NonFinite)
	}
	if st.Min != 0 || st.Max != 0 || st.Sum != 0 {
		t.Fatalf("empty stats not zero: %+v", st)
	}
}

// Registry snapshots must stay JSON-encodable even after hostile
// observations — json.Marshal fails outright on NaN/Inf.
func TestSnapshotJSONSafeUnderNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_hist")
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(42)

	snaps := r.Snapshot()
	b, err := json.Marshal(snaps)
	if err != nil {
		t.Fatalf("Snapshot not JSON-encodable: %v", err)
	}
	var back []Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back) != 1 || back[0].NonFinite != 2 || back[0].Count != 1 {
		t.Fatalf("round-tripped snapshot wrong: %+v", back)
	}
}
