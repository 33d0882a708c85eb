// Package prof is the attribution dimension of the observability layer:
// pprof goroutine labels drawn from a fixed key set, plus a whole-run CPU
// profile that carries them.
//
// Telemetry (counters, histograms) and spans say how long each stage of a
// run took; the flight recorder says how that evolved over time. Neither
// says where the CPU time goes. This package closes that gap with three
// small pieces, and leaves reading profiles to `go tool pprof`:
//
//  1. Label propagation (this file): the CLI driver loops, the experiment
//     drivers, the runner and the mux wrap their work in Do, which applies
//     pprof goroutine labels drawn from a FIXED key set — figure,
//     sweep_point, model, path, lane — so every CPU sample the Go profiler
//     takes is attributable to an experiment coordinate. The key set is
//     closed on purpose: an ad-hoc key would fragment attribution (the
//     proflabels analyzer in internal/analysis enforces this at lint
//     time).
//
//  2. StartCPUProfile (this file): the -cpuprofile flag of repro and
//     atmsim. The profile is a standard gzipped pprof file, so
//     `go tool pprof -top`, `-tags`, `-tagfocus=figure=fig8` and
//     `-diff_base` answer where the time went, per label and between two
//     runs.
//
//  3. A runtime/metrics bridge (runtime.go) exporting GC pause
//     quantiles, scheduler latency, heap bytes and goroutine counts into
//     the telemetry registry, so flight frames record them and SLO rules
//     can watch them (p99(go_gc_pause_seconds) < 0.01,
//     stalled(go_goroutines)).
//
// Profiling must never perturb results: labels and profiles are pure
// observation, and CI diffs profiled against unprofiled smoke manifests
// at rtol 0. It must also be cheap: goroutine labels are a small map copy
// per replication, far below the per-replication simulation work.
package prof

import (
	"bufio"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime/pprof"
)

// The fixed label key set. Every pprof goroutine label this repository
// attaches uses exactly these keys; CI gates the fraction of CPU samples
// that carry at least one of them (go tool pprof -tagfocus=.).
const (
	// KeyFigure is the experiment/figure id (fig8, extloop, ...), set by
	// the CLI driver loop.
	KeyFigure = "figure"
	// KeySweepPoint identifies the point within a figure's sweep — a
	// buffer size for per-point closed-loop runs, "coupled" for sweeps
	// whose single pass covers the whole grid.
	KeySweepPoint = "sweep_point"
	// KeyModel is the traffic model name (V, Z, S, L, aimd:..., ...).
	KeyModel = "model"
	// KeyPath distinguishes the mux execution paths: "chunked" (open-loop
	// block streaming) vs "stepped" (closed-loop per-frame engine).
	KeyPath = "path"
	// KeyLane is the runner worker lane (1-based), matching the lane
	// labels on runner_lane_reps_done_total and trace spans.
	KeyLane = "lane"
)

// Keys lists the fixed label key set in display order. The proflabels
// analyzer (internal/analysis) rejects any literal pprof label key
// outside this set.
var Keys = []string{KeyFigure, KeySweepPoint, KeyModel, KeyPath, KeyLane}

// Labels is the typed form of the fixed key set: the only way this
// repository attaches pprof labels. Empty fields are omitted, so callers
// set just the coordinates they own and inherit the rest from the
// context (pprof labels merge parent-to-child through ctx).
type Labels struct {
	Figure     string
	SweepPoint string
	Model      string
	Path       string
	Lane       string
}

// pairs flattens the non-empty fields to pprof's k,v,... form.
func (l Labels) pairs() []string {
	p := make([]string, 0, 10)
	if l.Figure != "" {
		p = append(p, KeyFigure, l.Figure)
	}
	if l.SweepPoint != "" {
		p = append(p, KeySweepPoint, l.SweepPoint)
	}
	if l.Model != "" {
		p = append(p, KeyModel, l.Model)
	}
	if l.Path != "" {
		p = append(p, KeyPath, l.Path)
	}
	if l.Lane != "" {
		p = append(p, KeyLane, l.Lane)
	}
	return p
}

// Do runs f with l's non-empty labels merged into ctx's label set and
// applied to the current goroutine for the duration of the call, so CPU
// samples taken inside f carry them. The previous goroutine labels are
// restored when f returns. A nil ctx is treated as context.Background();
// with no labels to add, f runs directly (zero cost beyond the call).
//
// Labels propagate only through the context: pass the ctx given to f
// onward (and into prof.Do in callees) or child work loses attribution.
func Do(ctx context.Context, l Labels, f func(ctx context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := l.pairs()
	if len(p) == 0 {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(p...), f)
}

// WithLabels returns a context carrying l's non-empty labels merged with
// any labels already on ctx. It does NOT apply them to the current
// goroutine — they take effect at the next Do on the returned context.
// Use it to stack coordinates (figure at the driver, model at the
// series, lane in the runner) before the innermost Do applies them all.
func WithLabels(ctx context.Context, l Labels) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	p := l.pairs()
	if len(p) == 0 {
		return ctx
	}
	return pprof.WithLabels(ctx, pprof.Labels(p...))
}

// StartCPUProfile starts the process-wide CPU profile, written to path
// (its directory is created if missing, like the flight log's). The
// returned stop function ends the profile and closes the file, reporting
// the first write or close error; call it exactly once, on every exit
// path, or the file stays empty. Starting a second profile while one
// runs is an error.
func StartCPUProfile(path string) (stop func() error, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// The profiler drops write errors; bufio keeps the first one for Flush.
	w := bufio.NewWriter(f)
	if err := pprof.StartCPUProfile(w); err != nil {
		return nil, errors.Join(err, f.Close(), os.Remove(path))
	}
	return func() error {
		pprof.StopCPUProfile()
		return errors.Join(w.Flush(), f.Close())
	}, nil
}
