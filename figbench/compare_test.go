package main

import (
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// testRecord is one record with a wall_s distribution scaled by f.
func testRecord(f float64, h hostInfo) record {
	var wall []float64
	for _, v := range []float64{1.90, 1.95, 2.00, 2.02, 2.05} {
		wall = append(wall, v*f)
	}
	return record{Host: h, Workloads: []workloadResult{{
		Name:    "analytic",
		Metrics: map[string]summary{"wall_s": summarize("s", wall, true)},
	}}}
}

func verdicts(t *testing.T, a, b record) []string {
	t.Helper()
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range compareRecords(s, a, b) {
		out = append(out, r.verdict)
	}
	return out
}

// wallBound is wall_s's regression bound from BENCHMARK.json.
func wallBound(t *testing.T) float64 {
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.metric("wall_s")
	return *m.Bound
}

func TestCompare(t *testing.T) {
	h := hostInfo{CPU: "test CPU", NProc: 2, GOMAXPROCS: 2}
	b := wallBound(t)
	if v := verdicts(t, testRecord(1, h), testRecord(1, h)); len(v) != 1 || v[0] != verdictOK {
		t.Errorf("identical records: verdicts %v, want [ok]", v)
	}
	if v := verdicts(t, testRecord(1, h), testRecord(1+1.5*b, h)); len(v) != 1 || v[0] != verdictRegression {
		t.Errorf("wall_s worse by 1.5 bounds: verdicts %v, want [REGRESSION]", v)
	}
	if v := verdicts(t, testRecord(1, h), testRecord(1-1.5*b, h)); len(v) != 1 || v[0] != verdictBetter {
		t.Errorf("wall_s better by 1.5 bounds: verdicts %v, want [better]", v)
	}
	noisy := testRecord(1, h)
	noisy.Workloads[0].Metrics["wall_s"] = summarize("s", []float64{1, 1.5, 2, 2.5, 3}, true)
	if v := verdicts(t, testRecord(1, h), noisy); len(v) != 1 || v[0] != verdictUnresolved {
		t.Errorf("spread wider than the bound: verdicts %v, want [unresolved]", v)
	}
}

func TestCompareFilesGatesOnlyOneHost(t *testing.T) {
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, r record) string {
		p := filepath.Join(dir, name)
		if err := r.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := hostInfo{CPU: "test CPU", NProc: 2, GOMAXPROCS: 2}
	slower := 1 + 1.5*wallBound(t)
	base := write("a.json", testRecord(1, h))
	for _, tc := range []struct {
		name      string
		b         record
		regressed bool
	}{
		{"identical", testRecord(1, h), false},
		{"slower", testRecord(slower, h), true},
		{"slower on another host", testRecord(slower, hostInfo{CPU: "other CPU", NProc: 8, GOMAXPROCS: 8}), false},
	} {
		got, err := compareFiles(s, base, write(tc.name+".json", tc.b))
		if err != nil || got != tc.regressed {
			t.Errorf("%s: regressed = %v (%v), want %v", tc.name, got, err, tc.regressed)
		}
	}
}
