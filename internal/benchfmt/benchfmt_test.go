package benchfmt

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkMuxRunScalar-8   	       2	 505147561 ns/op	 197965000 frames/sec
BenchmarkMuxRunBlock-8    	      14	  78740215 ns/op	1.27e+09 frames/sec	      16 B/op	       1 allocs/op
BenchmarkGenZ-8           	31882730	        37.60 ns/op
some unrelated log line
PASS
ok  	repro	12.270s
`

func TestParse(t *testing.T) {
	bs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(bs))
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	if bs[0].Name != "BenchmarkGenZ" || bs[1].Name != "BenchmarkMuxRunBlock" {
		t.Errorf("unexpected order/names: %q, %q", bs[0].Name, bs[1].Name)
	}
	blk := bs[1]
	if blk.Iterations != 14 {
		t.Errorf("iterations = %d, want 14", blk.Iterations)
	}
	if blk.Metrics["ns/op"] != 78740215 || blk.Metrics["frames/sec"] != 1.27e9 ||
		blk.Metrics["B/op"] != 16 || blk.Metrics["allocs/op"] != 1 {
		t.Errorf("metrics = %v", blk.Metrics)
	}
	if bs[0].Metrics["ns/op"] != 37.60 {
		t.Errorf("fractional ns/op = %v, want 37.6", bs[0].Metrics["ns/op"])
	}
}

func TestFileRoundTrip(t *testing.T) {
	bs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	f := File{Date: "2026-08-06", GoVersion: "go1.24.0", GitRevision: "abc", Benchmarks: bs}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-08-06.json")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Date != f.Date || len(back.Benchmarks) != len(f.Benchmarks) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Benchmarks[1].Metrics["frames/sec"] != 1.27e9 {
		t.Errorf("metrics lost: %v", back.Benchmarks[1].Metrics)
	}

	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != path {
		t.Errorf("Latest = %q, want %q", latest, path)
	}
	WriteFile(filepath.Join(dir, "BENCH_2026-09-01.json"), f)
	latest, _ = Latest(dir)
	if filepath.Base(latest) != "BENCH_2026-09-01.json" {
		t.Errorf("Latest = %q, want the newer file", latest)
	}
	// Empty dir → no baseline, no error.
	if l, err := Latest(t.TempDir()); err != nil || l != "" {
		t.Errorf("Latest on empty dir = %q, %v", l, err)
	}
}

func TestDiffDirections(t *testing.T) {
	old := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100, "frames/sec": 1000}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 1}},
	}}
	nw := File{Benchmarks: []Benchmark{
		// ns/op worse by 20%, frames/sec worse by 20%: both regress at 10%.
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 120, "frames/sec": 800}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 5}},
	}}
	deltas := Diff(old, nw, 0.10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (only common benchmarks/units): %+v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if !d.Regression {
			t.Errorf("%s %s: want regression, got %+v", d.Name, d.Unit, d)
		}
	}
	// Improvements must not flag: faster time, higher throughput.
	better := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 80, "frames/sec": 1500}},
	}}
	for _, d := range Diff(old, better, 0.10) {
		if d.Regression {
			t.Errorf("improvement flagged as regression: %+v", d)
		}
		if d.Change() >= 0 {
			t.Errorf("improvement should have negative change: %+v", d)
		}
	}
	// Within-threshold noise must not flag.
	noise := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 105, "frames/sec": 960}},
	}}
	for _, d := range Diff(old, noise, 0.10) {
		if d.Regression {
			t.Errorf("5%% noise flagged at 10%% threshold: %+v", d)
		}
	}
}

func TestZeroBaselineAllocationsGate(t *testing.T) {
	old := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"allocs/op": 0, "B/op": 0}},
	}}
	nw := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"allocs/op": 1, "B/op": 16}},
	}}
	deltas := Diff(old, nw, 0.20)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2: %+v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if !d.Regression {
			t.Errorf("%s %s: 0 → %g must gate regardless of threshold: %+v", d.Name, d.Unit, d.New, d)
		}
	}
	var buf bytes.Buffer
	Report(&buf, deltas, nil, 0.20, true)
	if !strings.Contains(buf.String(), "0→new") {
		t.Errorf("report should mark the ratio-less change:\n%s", buf.String())
	}
	// A benchmark that stays at zero allocations is not a regression.
	for _, d := range Diff(old, old, 0.20) {
		if d.Regression || d.Change() != 0 {
			t.Errorf("0 → 0 flagged: %+v", d)
		}
	}
	// 0 → N in a higher-is-better unit is an unbounded improvement.
	oldRate := File{Benchmarks: []Benchmark{{Name: "BenchmarkR", Metrics: map[string]float64{"frames/sec": 0}}}}
	newRate := File{Benchmarks: []Benchmark{{Name: "BenchmarkR", Metrics: map[string]float64{"frames/sec": 100}}}}
	for _, d := range Diff(oldRate, newRate, 0.20) {
		if d.Regression || d.Change() >= 0 {
			t.Errorf("rate appearing from zero flagged as regression: %+v", d)
		}
	}
}

func TestLowerIsBetter(t *testing.T) {
	for unit, want := range map[string]bool{
		"ns/op": true, "B/op": true, "allocs/op": true,
		"frames/sec": false, "items/s": false,
	} {
		if got := LowerIsBetter(unit); got != want {
			t.Errorf("LowerIsBetter(%q) = %v, want %v", unit, got, want)
		}
	}
}

func TestReport(t *testing.T) {
	old := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 100}},
	}}
	nw := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 150}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 101}},
	}}
	deltas := Diff(old, nw, 0.10)
	var buf bytes.Buffer
	Report(&buf, deltas, nil, 0.10, true)
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "BenchmarkA") {
		t.Errorf("report missing regression:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkB") {
		t.Errorf("onlyInteresting report should hide the 1%% delta:\n%s", out)
	}
	if !strings.Contains(out, "2 comparisons, 1 regressions") {
		t.Errorf("report missing summary:\n%s", out)
	}
}

func TestRemovedBenchmarksReported(t *testing.T) {
	old := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkGone/sub", Metrics: map[string]float64{"ns/op": 1}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 1}},
	}}
	nw := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 5}},
	}}
	removed := Removed(old, nw)
	if want := []string{"BenchmarkGone", "BenchmarkGone/sub"}; strings.Join(removed, ",") != strings.Join(want, ",") {
		t.Fatalf("Removed = %q, want %q", removed, want)
	}
	deltas := Diff(old, nw, 0.10)
	if n := Regressions(deltas); n != 0 {
		t.Errorf("removal counted as %d regressions", n)
	}
	var buf bytes.Buffer
	Report(&buf, deltas, removed, 0.10, true)
	out := buf.String()
	lines := strings.Split(out, "\n")
	for _, name := range removed {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") && strings.HasSuffix(l, " removed") {
				found = true
			}
		}
		if !found {
			t.Errorf("report has no removed line for %s:\n%s", name, out)
		}
	}
	if strings.Contains(out, "BenchmarkNew") {
		t.Errorf("a benchmark new to this run is not a removal:\n%s", out)
	}
	if !strings.Contains(out, "1 comparisons, 0 regressions, 2 removed") {
		t.Errorf("summary does not count removals:\n%s", out)
	}
}
