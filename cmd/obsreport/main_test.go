package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
)

// writeLog records a short synthetic run and returns the flight log path.
func writeLog(t *testing.T) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := reg.Counter("cells_total")
	g := reg.Gauge("occupancy")
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r, err := flight.Start(reg, flight.Options{Interval: flight.DefaultInterval, Path: path, Tool: "obsreport-test"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		c.Add(int64(10 * i))
		g.Set(float64(i))
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlightSectionAndMarkdown(t *testing.T) {
	path := writeLog(t)
	lg, err := flight.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	sec := buildFlightSection(lg, 40)
	if sec.Frames != len(lg.Frames) {
		t.Fatalf("frames %d != %d", sec.Frames, len(lg.Frames))
	}
	if len(sec.Series) == 0 {
		t.Fatal("no active series found")
	}
	names := map[string]bool{}
	for _, s := range sec.Series {
		names[s.Name] = true
		if len(s.Values) != sec.Frames {
			t.Errorf("series %s has %d values for %d frames", s.Name, len(s.Values), sec.Frames)
		}
		if s.Spark == "" {
			t.Errorf("series %s has empty sparkline", s.Name)
		}
	}
	if !names["cells_total"] || !names["occupancy"] {
		t.Fatalf("missing series: %v", names)
	}

	// Bounds that hold at the baseline frame too (frame 0 reads absent
	// counters as zero, by design).
	rules, err := slo.ParseList("value(cells_total) <= 1000; stalled(occupancy) <= 1")
	if err != nil {
		t.Fatal(err)
	}
	eng := slo.NewEngine(nil, rules)
	for _, f := range lg.Frames {
		eng.Observe(f.Metrics, f.ElapsedSeconds)
	}
	v := eng.Verdict()
	rep := Report{Flight: sec, SLO: &v}
	md := rep.Markdown()
	for _, want := range []string{"## Flight recording", "cells_total", "## SLO verdict", "PASS"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if v.Failed {
		t.Fatalf("verdict failed: %s", v.Summary())
	}
}

// writeBridgedLog records a flight log with the runtime/metrics bridge
// attached, so frames carry go_* runtime-health metrics.
func writeBridgedLog(t *testing.T) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := reg.Counter("cells_total")
	bridge := prof.NewRuntimeBridge(reg)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r, err := flight.Start(reg, flight.Options{
		Interval: flight.DefaultInterval, Path: path, Tool: "obsreport-test",
		BeforeSnapshot: bridge.Poll,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Add(7)
	// /gc/heap/live:bytes only updates at the end of a GC cycle; force one
	// so the final frame carries a live heap figure.
	runtime.GC()
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRuntimeSection(t *testing.T) {
	lg, err := flight.ReadLog(writeBridgedLog(t))
	if err != nil {
		t.Fatal(err)
	}
	sec := buildRuntimeSection(lg)
	if sec == nil {
		t.Fatal("no runtime section from a bridged log")
	}
	if sec.Goroutines == nil || sec.GoroutineHighWater < 1 {
		t.Errorf("goroutine high-water = %v, want >= 1", sec.GoroutineHighWater)
	}
	if sec.HeapLive == nil || sec.HeapLive.Last <= 0 {
		t.Errorf("heap live series missing or zero: %+v", sec.HeapLive)
	}
	md := Report{Runtime: sec}.Markdown()
	for _, want := range []string{"## Runtime health", "go_goroutines", "go_heap_live_bytes", "high-water"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}

	// A log without bridge metrics yields no section at all.
	plain, err := flight.ReadLog(writeLog(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := buildRuntimeSection(plain); got != nil {
		t.Errorf("unbridged log produced a runtime section: %+v", got)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}); got != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}); got != "▄▄▄" {
		t.Errorf("constant sparkline %q", got)
	}
	if got := sparkline(nil); got != "" {
		t.Errorf("empty sparkline %q", got)
	}
}

func TestDeltasAndActivity(t *testing.T) {
	d := deltas([]float64{10, 15, 15, 30})
	want := []float64{10, 5, 0, 15}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("deltas = %v, want %v", d, want)
		}
	}
	flat := MetricSeries{Min: 0, Max: 0}
	if activity(flat) != 0 {
		t.Error("flat series should rank zero")
	}
	busy := MetricSeries{Min: 0, Max: 10}
	if activity(busy) <= activity(flat) {
		t.Error("busy series should outrank flat")
	}
}
