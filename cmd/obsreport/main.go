// Command obsreport merges a run's observability artifacts — manifest,
// flight log, span summary, and SLO verdicts — into one self-contained
// run report: what ran, what it produced, how its metrics evolved over
// time (per-metric sparkline series), how the Go runtime behaved (GC
// pause and heap sparklines, goroutine high-water mark), and whether it
// met its objectives. Where the CPU went is read from a -cpuprofile file
// with go tool pprof.
//
// Usage:
//
//	obsreport [-manifest FILE] [-flight FILE] [-slo RULES]
//	          [-format md|json] [-out FILE] [-max-series 40]
//	          [-fail-on-breach] [-v] [-quiet]
//
// At least one of -manifest and -flight is required. SLO rules
// (same syntax as the online -slo flag on the run binaries; see
// internal/telemetry/slo) are replayed offline over the decoded flight
// frames, so a soak recorded yesterday can be judged against objectives
// written today. The runtime-health section appears when the flight log
// carries the go_* metrics of the runtime/metrics bridge (any -flight
// run records them). Exit status: 0 = report written
// (and SLOs green, if any), 1 = usage or I/O error, 2 = SLO breach with
// -fail-on-breach.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
)

var logx = telemetry.Log

func main() {
	var (
		manifestPath = flag.String("manifest", "", "run manifest (JSONL) to fold into the report")
		flightPath   = flag.String("flight", "", "flight log (JSONL) to fold into the report")
		rules        = flag.String("slo", "", "semicolon-separated SLO rules replayed over the flight log")
		format       = flag.String("format", "md", "report format: md or json")
		out          = flag.String("out", "", "output file (default stdout)")
		maxSeries    = flag.Int("max-series", 40, "cap on sparkline series in the flight section (most active first)")
		failBreach   = flag.Bool("fail-on-breach", false, "exit with status 2 when any SLO rule fails")
		verbose      = flag.Bool("v", false, "verbose logging (debug level)")
		quiet        = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	flag.Parse()
	logx.SetPrefix("obsreport")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))
	if *manifestPath == "" && *flightPath == "" {
		logx.Errorf("usage: obsreport -manifest FILE and/or -flight FILE [flags]")
		os.Exit(1)
	}
	if *format != "md" && *format != "json" {
		fatal(fmt.Errorf("unknown -format %q (want md or json)", *format))
	}

	rep := Report{}
	if *manifestPath != "" {
		m, err := telemetry.ReadManifest(*manifestPath)
		if err != nil {
			fatal(err)
		}
		rep.Manifest = m
	}
	if *flightPath != "" {
		lg, err := flight.ReadLog(*flightPath)
		if err != nil {
			fatal(err)
		}
		rep.Flight = buildFlightSection(lg, *maxSeries)
		rep.Runtime = buildRuntimeSection(lg)
		if *rules != "" {
			rs, err := slo.ParseList(*rules)
			if err != nil {
				fatal(err)
			}
			eng := slo.NewEngine(nil, rs)
			for _, f := range lg.Frames {
				eng.Observe(f.Metrics, f.ElapsedSeconds)
			}
			v := eng.Verdict()
			rep.SLO = &v
		}
	} else if *rules != "" {
		fatal(fmt.Errorf("-slo needs a -flight log to replay against"))
	}

	var body string
	if *format == "json" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		body = string(b) + "\n"
	} else {
		body = rep.Markdown()
	}
	if *out == "" {
		fmt.Print(body)
	} else if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		fatal(err)
	} else {
		logx.Infof("wrote %s report to %s", *format, *out)
	}
	if rep.SLO != nil && rep.SLO.Failed {
		logx.Errorf("SLO verdict: FAILED\n%s", rep.SLO.Summary())
		if *failBreach {
			os.Exit(2)
		}
	}
}

// Report is the merged run report (the -format json output shape).
type Report struct {
	Manifest *telemetry.Manifest `json:"manifest,omitempty"`
	Flight   *FlightSection      `json:"flight,omitempty"`
	Runtime  *RuntimeSection     `json:"runtime,omitempty"`
	SLO      *slo.Verdict        `json:"slo,omitempty"`
}

// RuntimeSection is the Go-runtime health view assembled from the go_*
// metrics the runtime/metrics bridge records into flight frames.
type RuntimeSection struct {
	// GCPauseP99 tracks the p99 GC pause per frame (seconds, level).
	GCPauseP99 *MetricSeries `json:"gc_pause_p99,omitempty"`
	// GCPauses is the cumulative pause count over the recording.
	GCPauses int64 `json:"gc_pauses"`
	// GCCycles is the total completed GC cycles over the recording.
	GCCycles float64 `json:"gc_cycles"`
	// HeapLive tracks go_heap_live_bytes (bytes, level).
	HeapLive *MetricSeries `json:"heap_live,omitempty"`
	// Goroutines tracks go_goroutines; GoroutineHighWater is its max.
	Goroutines         *MetricSeries `json:"goroutines,omitempty"`
	GoroutineHighWater float64       `json:"goroutine_high_water"`
}

// buildRuntimeSection extracts the bridged runtime metrics from flight
// frames; nil when the log predates the bridge (no go_* metrics).
func buildRuntimeSection(lg *flight.Log) *RuntimeSection {
	sec := &RuntimeSection{
		GCPauseP99: frameSeries(lg, prof.MetricGCPause, func(s telemetry.Snapshot) float64 { return s.P99 }),
		HeapLive:   frameSeries(lg, prof.MetricHeapLive, func(s telemetry.Snapshot) float64 { return s.Value }),
		Goroutines: frameSeries(lg, prof.MetricGoroutines, func(s telemetry.Snapshot) float64 { return s.Value }),
	}
	if sec.GCPauseP99 == nil && sec.HeapLive == nil && sec.Goroutines == nil {
		return nil
	}
	if sec.Goroutines != nil {
		sec.GoroutineHighWater = sec.Goroutines.Max
	}
	for _, f := range lg.Frames {
		for _, m := range f.Metrics {
			switch m.Name {
			case prof.MetricGCPause:
				sec.GCPauses = m.Count
			case prof.MetricGCCycles:
				sec.GCCycles = m.Value
			}
		}
	}
	return sec
}

// frameSeries tracks one unlabelled metric across frames as a level
// series; nil when the metric never appears.
func frameSeries(lg *flight.Log, name string, value func(telemetry.Snapshot) float64) *MetricSeries {
	ms := MetricSeries{Name: name, Mode: "level"}
	found := false
	for _, f := range lg.Frames {
		v := 0.0
		for _, m := range f.Metrics {
			if m.Name == name && len(m.Labels) == 0 {
				v = value(m)
				found = true
				break
			}
		}
		ms.Values = append(ms.Values, v)
	}
	if !found {
		return nil
	}
	ms.Kind = telemetry.KindGauge
	ms.Min, ms.Max = minMax(ms.Values)
	ms.Last = ms.Values[len(ms.Values)-1]
	ms.Spark = sparkline(ms.Values)
	return &ms
}

// FlightSection summarises a flight log: identity, coverage, and one
// sparkline series per active metric.
type FlightSection struct {
	Header          flight.LogHeader `json:"header"`
	Frames          int              `json:"frames"`
	DurationSeconds float64          `json:"duration_seconds"`
	TotalSeries     int              `json:"total_series"`
	Series          []MetricSeries   `json:"series"` // active metrics, most active first, capped
}

// MetricSeries is one metric's evolution across frames. Counters and
// histogram counts are shown as per-frame deltas ("flow"), gauges and
// quantiles as absolute levels.
type MetricSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   telemetry.Kind    `json:"kind"`
	Mode   string            `json:"mode"` // "delta" or "level"
	Values []float64         `json:"values"`
	Spark  string            `json:"spark"`
	Min    float64           `json:"min"`
	Max    float64           `json:"max"`
	Last   float64           `json:"last"`
}

// buildFlightSection extracts per-metric series from decoded frames,
// keeping the max most active (largest |max−min|·relative movement) so a
// registry with hundreds of static instruments reports only what moved.
func buildFlightSection(lg *flight.Log, max int) *FlightSection {
	sec := &FlightSection{Header: lg.Header, Frames: len(lg.Frames)}
	if len(lg.Frames) == 0 {
		return sec
	}
	sec.DurationSeconds = lg.Frames[len(lg.Frames)-1].ElapsedSeconds

	type track struct {
		meta   telemetry.Snapshot
		values []float64 // raw observed value per frame (padded on first sight)
	}
	tracks := make(map[string]*track)
	keys := []string{}
	for fi, f := range lg.Frames {
		for _, m := range f.Metrics {
			key := instrumentKey(m)
			tr, ok := tracks[key]
			if !ok {
				tr = &track{meta: m}
				// Metrics that appear mid-run backfill zeros so every
				// series spans all frames.
				tr.values = make([]float64, fi)
				tracks[key] = tr
				keys = append(keys, key)
			}
			tr.values = append(tr.values, rawValue(m))
		}
		// Metrics absent from this frame (can't happen today — frames are
		// full snapshots — but cheap to guard) carry their last value.
		for _, key := range keys {
			tr := tracks[key]
			if len(tr.values) <= fi {
				tr.values = append(tr.values, tr.values[len(tr.values)-1])
			}
		}
	}
	sec.TotalSeries = len(keys)
	sort.Strings(keys)

	for _, key := range keys {
		tr := tracks[key]
		ms := MetricSeries{
			Name:   tr.meta.Name,
			Labels: tr.meta.Labels,
			Kind:   tr.meta.Kind,
		}
		switch tr.meta.Kind {
		case telemetry.KindCounter, telemetry.KindFloatCounter, telemetry.KindHistogram, telemetry.KindTimer:
			ms.Mode = "delta"
			ms.Values = deltas(tr.values)
		default:
			ms.Mode = "level"
			ms.Values = tr.values
		}
		ms.Min, ms.Max = minMax(ms.Values)
		if len(tr.values) > 0 {
			ms.Last = tr.values[len(tr.values)-1]
		}
		if ms.Min == ms.Max && ms.Min == 0 { //lint:floateq exact zero marks a series that never moved — drop it from the report
			continue
		}
		ms.Spark = sparkline(ms.Values)
		sec.Series = append(sec.Series, ms)
	}
	// Most active first: widest dynamic range relative to magnitude wins.
	sort.SliceStable(sec.Series, func(i, j int) bool {
		return activity(sec.Series[i]) > activity(sec.Series[j])
	})
	if len(sec.Series) > max {
		logx.Infof("flight section capped at %d of %d active series (-max-series)", max, len(sec.Series))
		sec.Series = sec.Series[:max]
	}
	return sec
}

// rawValue reads the trackable scalar from a snapshot: counters and gauges
// their value, distributions their cumulative count.
func rawValue(m telemetry.Snapshot) float64 {
	switch m.Kind {
	case telemetry.KindHistogram, telemetry.KindTimer:
		return float64(m.Count)
	}
	return m.Value
}

func deltas(vs []float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, len(vs))
	out[0] = vs[0]
	for i := 1; i < len(vs); i++ {
		out[i] = vs[i] - vs[i-1]
	}
	return out
}

func minMax(vs []float64) (float64, float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	mn, mx := vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// activity ranks series for the report cap: range normalised by magnitude,
// so a counter ticking in the millions and a gauge wobbling around 0.1
// compete fairly.
func activity(ms MetricSeries) float64 {
	span := ms.Max - ms.Min
	scale := ms.Max
	if -ms.Min > scale {
		scale = -ms.Min
	}
	if scale == 0 {
		return 0
	}
	return span / scale
}

// instrumentKey renders name{k=v,...} with sorted labels.
func instrumentKey(s telemetry.Snapshot) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func fatal(err error) {
	logx.Errorf("%v", err)
	os.Exit(1)
}
