package main

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func golden(t *testing.T) *telemetry.Manifest {
	t.Helper()
	m, err := telemetry.ReadManifest(filepath.Join("..", "results", "golden", "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// clone deep-copies result records so a test can perturb one value.
func clone(rs []telemetry.ResultRecord) []telemetry.ResultRecord {
	out := make([]telemetry.ResultRecord, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Series = make([]telemetry.SeriesRecord, len(r.Series))
		for j, s := range r.Series {
			s.X = append([]float64(nil), s.X...)
			s.Y = append([]float64(nil), s.Y...)
			s.Lo = append([]float64(nil), s.Lo...)
			s.Hi = append([]float64(nil), s.Hi...)
			out[i].Series[j] = s
		}
	}
	return out
}

func TestCheckSameDemandsBitEquality(t *testing.T) {
	want := golden(t).Results
	var c checker
	c.checkSame("identical", clone(want), want)
	if c.failed != 0 {
		t.Fatalf("identical results: %d of %d checks failed", c.failed, c.attempted)
	}
	got := clone(want)
	y := got[0].Series[1].Y
	y[2] = math.Nextafter(y[2], math.Inf(1))
	c = checker{}
	c.checkSame("one ulp", got, want)
	if c.failed != 1 {
		t.Errorf("a value 1 ulp from the reference: %d checks failed, want 1", c.failed)
	}
}

// simSeries is a well-formed simulated CLR series.
func simSeries(label string, y ...float64) telemetry.SeriesRecord {
	s := telemetry.SeriesRecord{Label: label}
	for i, v := range y {
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, v)
		s.Lo = append(s.Lo, v/2)
		s.Hi = append(s.Hi, v*2)
		s.Conv = append(s.Conv, telemetry.ConvRecord{N: 2})
	}
	return s
}

func TestCheckSimulated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		series telemetry.SeriesRecord
		fails  bool
	}{
		{"well-formed", simSeries("Z^0.975", 1e-3, 1e-4, 0), false},
		{"NaN", simSeries("Z^0.975", 1e-3, math.NaN(), 0), true},
		{"increasing open-loop CLR", simSeries("Z^0.975", 1e-4, 1e-3, 0), true},
		{"open-loop CLR rising by rounding", simSeries("Z^0.975", 0.0052352591139817675, 0.005235259113981774, 0), false},
		{"increasing closed-loop CLR", simSeries("AIMD[Z^0.975]", 1e-4, 1e-3, 0), false},
		{"CLR above 1", simSeries("Z^0.975", 1.5, 1e-3, 0), true},
		{"missing verdict", func() telemetry.SeriesRecord {
			s := simSeries("Z^0.975", 1e-3, 1e-4)
			s.Conv = s.Conv[:1]
			return s
		}(), true},
	} {
		var c checker
		c.checkSimulated(telemetry.ResultRecord{ID: "fig8b", Series: []telemetry.SeriesRecord{tc.series}})
		if got := c.failed > 0; got != tc.fails {
			t.Errorf("%s: failed = %d, want failure %v", tc.name, c.failed, tc.fails)
		}
	}
}

func TestCheckFig10(t *testing.T) {
	g := golden(t)
	ref, ok := findResult(g.Results, "fig10")
	if !ok {
		t.Fatal("golden manifest has no fig10")
	}
	zero := experiments.ZeroBufferCheck(experiments.BopC, experiments.BopN)
	run := func(brScale, simY float64) int {
		r := clone([]telemetry.ResultRecord{ref})[0]
		br, _ := findSeries(r, "Bahadur-Rao")
		br.Y[1] *= brScale
		for i := range r.Series {
			if r.Series[i].Label == "simulated CLR" {
				r.Series[i].Y[0], r.Series[i].Lo[0], r.Series[i].Hi[0] = simY, zero*0.95, zero*1.05
			}
		}
		var c checker
		c.checkFig10(r, g)
		return c.failed
	}
	if n := run(1, zero*1.02); n != 0 {
		t.Errorf("golden asymptotics and an unbiased zero-buffer CLR: %d checks failed", n)
	}
	if n := run(1+1e-8, zero); n != 1 {
		t.Errorf("B-R off by 1e-8 relative: %d checks failed, want 1", n)
	}
	if n := run(1, zero*1.2); n != 1 {
		t.Errorf("zero-buffer CLR 20%% off with a ±5%% CI: %d checks failed, want 1", n)
	}
}

func TestCSVWithin(t *testing.T) {
	want, err := readCSV(filepath.Join("..", "results", "extsub-cts.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readCSV(filepath.Join("..", "results", "extsub-cts.csv"))
	if !csvWithin(got, want, committedRTol) {
		t.Fatal("a committed CSV differs from itself")
	}
	got[2][1] = "5" // a CTS of 4 frames in the committed table
	if csvWithin(got, want, committedRTol) {
		t.Error("a CTS off by one frame passed")
	}
}
