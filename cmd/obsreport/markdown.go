package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/telemetry"
)

// sparkBars is the eight-level unicode bar alphabet.
var sparkBars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as one bar per frame, scaled to the series'
// own [min, max]. A constant series renders mid-level bars; non-finite
// values render as spaces.
func sparkline(vs []float64) string {
	mn, mx := minMax(vs)
	span := mx - mn
	var b strings.Builder
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteByte(' ')
			continue
		}
		if span == 0 {
			b.WriteRune(sparkBars[3])
			continue
		}
		i := int((v - mn) / span * float64(len(sparkBars)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sparkBars) {
			i = len(sparkBars) - 1
		}
		b.WriteRune(sparkBars[i])
	}
	return b.String()
}

// Markdown renders the full run report.
func (r Report) Markdown() string {
	var b strings.Builder
	b.WriteString("# Run report\n")
	if r.Manifest != nil {
		writeManifestSection(&b, r)
	}
	if r.Flight != nil {
		writeFlightSection(&b, r.Flight)
	}
	if r.Runtime != nil {
		writeRuntimeSection(&b, r.Runtime)
	}
	if r.SLO != nil {
		writeSLOSection(&b, r)
	}
	return b.String()
}

// writeRuntimeSection renders the Go-runtime health view: GC pause and
// heap sparklines plus the goroutine high-water mark.
func writeRuntimeSection(b *strings.Builder, rt *RuntimeSection) {
	fmt.Fprintf(b, "\n## Runtime health\n\n")
	fmt.Fprintf(b, "%d GC pauses over %.4g cycles; goroutine high-water %.0f.\n",
		rt.GCPauses, rt.GCCycles, rt.GoroutineHighWater)
	fmt.Fprintf(b, "\n| metric | series | min | max | last |\n|---|---|---|---|---|\n")
	for _, ms := range []*MetricSeries{rt.GCPauseP99, rt.HeapLive, rt.Goroutines} {
		if ms == nil {
			continue
		}
		fmt.Fprintf(b, "| `%s` | `%s` | %.4g | %.4g | %.4g |\n",
			ms.Name, ms.Spark, ms.Min, ms.Max, ms.Last)
	}
}

func writeManifestSection(b *strings.Builder, r Report) {
	m := r.Manifest
	fmt.Fprintf(b, "\n## Run\n\n")
	fmt.Fprintf(b, "| field | value |\n|---|---|\n")
	fmt.Fprintf(b, "| tool | `%s` |\n", m.Header.Tool)
	if len(m.Header.Args) > 0 {
		fmt.Fprintf(b, "| args | `%s` |\n", strings.Join(m.Header.Args, " "))
	}
	fmt.Fprintf(b, "| start | %s |\n", m.Header.Start)
	fmt.Fprintf(b, "| seed | %d |\n", m.Header.Seed)
	fmt.Fprintf(b, "| go | %s |\n", m.Header.GoVersion)
	fmt.Fprintf(b, "| revision | `%s` |\n", m.Header.GitRevision)
	if m.Summary != nil {
		fmt.Fprintf(b, "| wall | %.2fs |\n", m.Summary.WallSeconds)
		fmt.Fprintf(b, "| cpu | %.2fs |\n", m.Summary.CPUSeconds)
	} else {
		fmt.Fprintf(b, "| summary | *missing — run was interrupted* |\n")
	}

	if len(m.Stages) > 0 {
		fmt.Fprintf(b, "\n## Stages\n\n| stage | wall | status |\n|---|---|---|\n")
		for _, s := range m.Stages {
			status := "ok"
			if s.Err != "" {
				status = "ERROR: " + s.Err
			}
			fmt.Fprintf(b, "| %s | %.2fs | %s |\n", s.ID, s.WallSeconds, status)
		}
	}

	if len(m.Results) > 0 {
		fmt.Fprintf(b, "\n## Results\n\n| result | title | series | points |\n|---|---|---|---|\n")
		for _, res := range m.Results {
			points := 0
			for _, s := range res.Series {
				points += len(s.Y)
			}
			fmt.Fprintf(b, "| %s | %s | %d | %d |\n", res.ID, res.Title, len(res.Series), points)
		}
	}

	if m.Summary != nil && len(m.Summary.Spans) > 0 {
		fmt.Fprintf(b, "\n## Span summary\n\n| span | count | total | min | max |\n|---|---|---|---|---|\n")
		for _, sp := range m.Summary.Spans {
			fmt.Fprintf(b, "| %s | %d | %.3fs | %.3fs | %.3fs |\n",
				sp.Name, sp.Count, sp.TotalSeconds, sp.MinSeconds, sp.MaxSeconds)
		}
	}
}

func writeFlightSection(b *strings.Builder, f *FlightSection) {
	fmt.Fprintf(b, "\n## Flight recording\n\n")
	fmt.Fprintf(b, "%d frames over %.1fs (cadence %.2gs, tool `%s`, revision `%s`).\n",
		f.Frames, f.DurationSeconds, f.Header.IntervalSeconds, f.Header.Tool, f.Header.GitRevision)
	if len(f.Series) == 0 {
		fmt.Fprintf(b, "\nNo metric moved during the recording.\n")
		return
	}
	fmt.Fprintf(b, "Showing %d active series of %d recorded (counters as per-frame deltas, gauges as levels).\n",
		len(f.Series), f.TotalSeries)
	fmt.Fprintf(b, "\n| metric | mode | series | min | max | last |\n|---|---|---|---|---|---|\n")
	for _, s := range f.Series {
		fmt.Fprintf(b, "| `%s` | %s | `%s` | %.4g | %.4g | %.4g |\n",
			seriesName(s), s.Mode, s.Spark, s.Min, s.Max, s.Last)
	}
}

func seriesName(s MetricSeries) string {
	return instrumentKey(telemetry.Snapshot{Name: s.Name, Labels: s.Labels})
}

func writeSLOSection(b *strings.Builder, r Report) {
	v := r.SLO
	verdict := "**PASS**"
	if v.Failed {
		verdict = "**FAIL**"
	}
	fmt.Fprintf(b, "\n## SLO verdict: %s\n\n", verdict)
	fmt.Fprintf(b, "| rule | evals | breaches | last | status |\n|---|---|---|---|---|\n")
	for _, rr := range v.Rules {
		status := "pass"
		if !rr.Pass {
			status = "FAIL"
			if rr.Note != "" {
				status += " — " + rr.Note
			}
			if rr.LastBreach != "" {
				status += " — " + rr.LastBreach
			}
		}
		fmt.Fprintf(b, "| `%s` | %d | %d | %.4g | %s |\n",
			rr.Rule, rr.Evaluations, rr.Breaches, rr.LastValue, status)
	}
}
