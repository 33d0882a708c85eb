package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Error("same name did not return the same counter")
	}
	f := r.FloatCounter("f")
	f.Add(0.5)
	f.Add(1.25)
	if got := f.Value(); got != 1.75 {
		t.Errorf("float counter = %v, want 1.75", got)
	}
	g := r.Gauge("g")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("stage", L("id", "fig8"))
	b := r.Counter("stage", L("id", "fig9"))
	if a == b {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter.
	x := r.Counter("multi", L("a", "1"), L("b", "2"))
	y := r.Counter("multi", L("b", "2"), L("a", "1"))
	if x != y {
		t.Error("label order changed metric identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("requesting a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	f := r.FloatCounter("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", c.Value())
	}
	if f.Value() != 4000 {
		t.Errorf("concurrent float counter = %v, want 4000", f.Value())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := NewHistogram()
	if st := h.Stats(); h.Count() != 0 || h.Sum() != 0 || st != (HistStats{}) {
		t.Errorf("empty histogram should report zeros, got %+v", st)
	}
	// Zero and negative observations keep exact min/max and sum.
	h.Observe(0)
	h.Observe(-3)
	h.Observe(5)
	st := h.Stats()
	if st.Count != 3 || st.Min != -3 || st.Max != 5 || st.Sum != 2 {
		t.Errorf("stats = %+v, want count 3 min -3 max 5 sum 2", st)
	}
	// A single value is both min and max.
	h2 := NewHistogram()
	h2.Observe(7)
	if st := h2.Stats(); st.Min != 7 || st.Max != 7 || st.Sum != 7 {
		t.Errorf("single-value stats = %+v, want min = max = sum = 7", st)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				h.Observe(float64(k*2000+j) + 1)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 16000 {
		t.Errorf("concurrent count = %d, want 16000", h.Count())
	}
	st := h.Stats()
	if st.Min != 1 || st.Max != 16000 {
		t.Errorf("min/max = %v/%v, want 1/16000", st.Min, st.Max)
	}
	wantSum := 16000.0 * 16001 / 2
	if math.Abs(st.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %v, want %v", st.Sum, wantSum)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("op_seconds")
	tm.Observe(50 * time.Millisecond)
	stop := tm.Start()
	stop()
	if tm.Count() != 2 {
		t.Errorf("timer count = %d, want 2", tm.Count())
	}
	if s := tm.SumSeconds(); s < 0.05 || s > 10 {
		t.Errorf("timer sum = %v s, want ≥ 0.05 and sane", s)
	}
}

func TestSnapshotStableAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_level").Set(1.5)
	r.Histogram("c_hist").Observe(10)
	r.Timer("d_seconds").Observe(time.Second)
	r.Counter("b_labeled", L("k", "v")).Inc()
	r.Gauge("e_gauge", L("k", "2")).Set(3)
	r.Gauge("e_gauge", L("k", "1")).Set(4)
	snaps := r.Snapshot()
	if len(snaps) != 7 {
		t.Fatalf("snapshot has %d entries, want 7", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Name > snaps[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snaps[i-1].Name, snaps[i].Name)
		}
	}
	// Label variants of one family are sorted too.
	if a, b := snaps[5].Labels["k"], snaps[6].Labels["k"]; a != "1" || b != "2" {
		t.Errorf("e_gauge label variants in order %q, %q; want 1, 2", a, b)
	}
	// Snapshots must round-trip through JSON (they enter manifests).
	b, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	var back []Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for i := range snaps {
		if back[i].Name != snaps[i].Name || back[i].Kind != snaps[i].Kind || back[i].Value != snaps[i].Value {
			t.Errorf("snapshot %d did not round-trip: %+v vs %+v", i, snaps[i], back[i])
		}
	}
}
