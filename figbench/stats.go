package main

import (
	"math"
	"slices"
	"sort"

	"repro/internal/telemetry"
)

// measure runs f and returns its wall time in seconds. The clock is read
// through a telemetry timer, so the benchmark — like the program it
// measures — reads wall time only through the observability layer.
func measure(f func() error) (float64, error) {
	t := telemetry.NewRegistry().Timer("figbench_interval_seconds")
	stop := t.Start()
	err := f()
	stop()
	return t.SumSeconds(), err
}

// summary is one metric over the samples of a run — one sample per repro
// child for end-to-end metrics, one per traced iteration for per-layer
// metrics: the value the run reports, how tightly the samples pin that
// value down, and the samples' quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Spread  float64   `json:"spread"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// summarize reports the samples' median, with the interquartile range as
// a share of it for spread — or, when fastest is set, the smallest sample,
// with the distance from it to the first quartile as a share of it: a
// quarter of the children ran within that share of the fastest.
func summarize(unit string, xs []float64, fastest bool) summary {
	q1, med, q3 := quartiles(xs)
	s := summary{Unit: unit, Value: med, Median: med, Q1: q1, Q3: q3, Samples: xs}
	width := q3 - q1
	if fastest && len(xs) > 0 {
		s.Value = slices.Min(xs)
		width = q1 - s.Value
	}
	if s.Value != 0 {
		s.Spread = math.Abs(width / s.Value)
	}
	return s
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs,
// with the quartiles interpolated exactly as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) places them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
