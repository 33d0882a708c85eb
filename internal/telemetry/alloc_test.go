package telemetry

import "testing"

// TestHotInstrumentsAllocateNothing fences the instruments the
// simulation updates per chunk and per replication: updating them
// allocates nothing.
func TestHotInstrumentsAllocateNothing(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("alloc_test_total")
	h := reg.Histogram("alloc_test_seconds")
	tm := reg.Timer("alloc_test_timer_seconds")
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Counter.Add", func() { ctr.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(0.25) }},
		{"Timer.Start()()", func() { tm.Start()() }},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s = %v allocations, want 0", c.name, n)
		}
	}
}
