package mux

import (
	"context"
	"fmt"
	"math"

	"repro/internal/seed"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Feedback-path telemetry. metFeedbackSteps counts feedback deliveries:
// one per served frame per buffer of a closed-loop run, regardless of how
// many sources listen. It is flushed once per run from the sources' frame
// count, never bumped per frame.
var metFeedbackSteps = telemetry.Default.Counter("mux_feedback_steps_total")

// Profiling labels for runs without and with a closed-loop source,
// mirroring the mux_path_runs_total{path=...} counters.
var (
	profChunked = prof.Labels{Path: "chunked"}
	profStepped = prof.Labels{Path: "stepped"}
)

// lindleyStep is the one shared Lindley kernel of this package: it
// advances the fluid finite-buffer recursion one frame,
//
//	net  = w + a − c
//	loss = (net − b)^+
//	w'   = min(net^+, b)
//
// returning the cells lost during the frame and the workload after it.
// With b = +Inf it degenerates to the infinite-buffer workload recursion
// w' = net^+ with zero loss, so the finite-buffer (CLR) and
// infinite-buffer (BOP) drains share this single implementation of the
// clip/overflow arithmetic.
func lindleyStep(w, a, c, b float64) (loss, next float64) {
	net := w + a - c
	if net <= 0 {
		return 0, 0
	}
	if net > b {
		return net - b, b
	}
	return 0, net
}

// zeroChunk is the open-loop aggregate of a run whose every source is
// closed-loop. It is only ever read.
var zeroChunk [chunkFrames]float64

// sources is the arrival side of one run. Open-loop sources are pooled
// into one blockAggregator and pulled in chunkFrames blocks; closed-loop
// sources are drawn one frame at a time, so each frame can react to the
// feedback of the one before.
//
// A closed-loop source is a base stream and one controller per buffer
// size: its frame at buffer j is its base draw times ctl[j][i].Rate().
// For a traffic.ClosedLoopModel the base is the model's open-loop Base,
// drawn once per frame for every buffer. A source that is only a
// traffic.FeedbackGenerator is its own base, under a tap controller of
// rate 1 that forwards the feedback, so it serves a single buffer.
//
// Aggregation order: a frame's arrivals are the open-loop sources' sum
// (in source order) plus the closed-loop sources' frames (in source
// order). For a pure open-loop run this is plain source order, the same
// summation as the scalar per-frame protocol.
type sources struct {
	open   *blockAggregator       // nil when every source is closed-loop
	closed []traffic.Generator    // closed-loop sources' base streams
	ctl    [][]traffic.Controller // ctl[j][i]: closed-loop source i at buffer j
	base   []float64              // the current frame's base draws
	frame  int                    // frames served through draw, warm-up included
}

// newSources builds n independent sources of m from master seed sd, with
// closed-loop state for buffers buffer sizes, and partitions them into the
// open-loop pool and the closed-loop list. Every newSources must be paired
// with a deferred release.
func newSources(m traffic.Model, n int, sd int64, buffers int, span trace.Span) (*sources, error) {
	cm, split := m.(traffic.ClosedLoopModel)
	gm := m
	if split {
		gm = cm.Base()
	}
	gens, err := sourceGenerators(gm, n, sd)
	if err != nil {
		return nil, err
	}
	s := &sources{ctl: make([][]traffic.Controller, buffers)}
	var open []traffic.Generator
	for _, g := range gens {
		fg, tapped := g.(traffic.FeedbackGenerator)
		if !split && !tapped {
			open = append(open, g)
			continue
		}
		s.closed = append(s.closed, g)
		for j := range s.ctl {
			var k traffic.Controller = tap{fg}
			if split {
				if k = cm.NewController(); k == nil {
					return nil, fmt.Errorf("mux: model %q returned a nil controller", m.Name())
				}
			}
			s.ctl[j] = append(s.ctl[j], k)
		}
	}
	if !split && s.closedLoop() && buffers > 1 {
		return nil, fmt.Errorf("mux: model %q has closed-loop sources without a "+
			"base/controller split (traffic.ClosedLoopModel), so each of them "+
			"serves one buffer: run per-buffer replications (RunReplicationsEngine) instead",
			m.Name())
	}
	if len(open) > 0 {
		s.open = newBlockAggregator(open)
		s.open.span = span
	}
	s.base = make([]float64, len(s.closed))
	return s, nil
}

// tap is the controller of a closed-loop source that is its own base: the
// source scales its frames itself, so the rate is 1, and it observes the
// feedback directly.
type tap struct{ g traffic.FeedbackGenerator }

func (t tap) Rate() float64               { return 1 }
func (t tap) Observe(fb traffic.Feedback) { t.g.Observe(fb) }

// sourceGenerators builds n independent generators, source i seeded with
// seed.Derive(sd, i) — the derivation package cellsim shares, so fluid and
// cell-level simulations of one configuration see the same arrivals. A
// model returning a nil generator (e.g. an unfitted or
// partially-constructed wrapper) is reported as an error rather than left
// to panic frames later inside a drain.
func sourceGenerators(m traffic.Model, n int, sd int64) ([]traffic.Generator, error) {
	seeds := seed.Children(sd, n)
	gens := make([]traffic.Generator, n)
	for i := range gens {
		g := m.NewGenerator(seeds[i])
		if g == nil {
			return nil, fmt.Errorf("mux: model %q returned nil generator for source %d (seed %d)",
				m.Name(), i, seeds[i])
		}
		gens[i] = g
	}
	return gens, nil
}

// closedLoop reports whether any source taps the feedback loop.
func (s *sources) closedLoop() bool { return len(s.closed) > 0 }

// pass pulls n frames of open-loop arrivals in blocks of at most
// chunkFrames and hands each block to drain, which advances its Lindley
// recursions over the block and returns the workload to sample. A
// measured pass wraps each drain in a span ("mux drain", or "mux step"
// when closed-loop sources are drawn per frame), the drain timer and one
// occupancy sample; the warm-up pass runs bare.
func (s *sources) pass(n int, measured bool, span trace.Span, drain func(open []float64) (w float64)) {
	name := "mux drain"
	if s.closedLoop() {
		name = "mux step"
	}
	for rem := n; rem > 0; {
		k := min(rem, chunkFrames)
		open := zeroChunk[:k]
		if s.open != nil {
			open = s.open.next(k)
		}
		if !measured {
			drain(open)
		} else {
			sp := span.Child(name, trace.Int("frames", k))
			stop := metDrainTime.Start()
			w := drain(open)
			stop()
			sp.End()
			metOccupancy.Observe(w)
		}
		rem -= k
	}
}

// draw draws the next base frame of every closed-loop source. It is called
// once per frame, before step serves that frame at each buffer.
func (s *sources) draw() {
	for i, g := range s.closed {
		s.base[i] = g.NextFrame()
	}
	s.frame++
}

// step serves the drawn frame at buffer j: it adds the closed-loop
// sources' frames at that buffer to the open-loop aggregate a, advances
// the Lindley recursion from w against capacity c and buffer b (+Inf for
// infinite-buffer runs), and delivers the post-frame Feedback to every
// controller of buffer j. It returns the frame's total arrivals, its loss
// and the workload after it.
func (s *sources) step(j int, a, w, c, b float64) (arrived, loss, next float64) {
	ctl := s.ctl[j]
	for i, x := range s.base {
		a += x * ctl[i].Rate()
	}
	loss, next = lindleyStep(w, a, c, b)
	fb := traffic.Feedback{
		Frame:    s.frame,
		W:        next,
		Buffer:   b,
		Capacity: c,
		Loss:     loss,
		// served = min(w + a, c), derived without re-branching: everything
		// that arrived or was queued either remains queued, was lost, or left.
		Utilization: (w + a - loss - next) / c,
	}
	for _, k := range ctl {
		k.Observe(fb)
	}
	return a, loss, next
}

// measure runs f under the pprof path label of these sources, merged with
// the coordinates ctx carries, and counts one run on that path: chunked
// without a closed-loop source, stepped with one.
func (s *sources) measure(ctx context.Context, f func(context.Context)) {
	l, path := profChunked, metPathChunked
	if s.closedLoop() {
		l, path = profStepped, metPathStepped
	}
	prof.Do(ctx, l, f)
	metRuns.Inc()
	path.Inc()
}

// release returns pooled buffers and flushes the feedback counters: one
// feedback step per frame served at each buffer, and the closed-loop
// sources' base frames, each drawn once however many buffers it serves.
// The sources must not be used afterwards.
func (s *sources) release() {
	if s.open != nil {
		s.open.release()
		s.open = nil
	}
	if s.frame > 0 {
		metFeedbackSteps.Add(int64(s.frame) * int64(len(s.ctl)))
		metFrames.Add(int64(s.frame) * int64(len(s.closed)))
	}
}

// drainCLR measures the finite-buffer CLR of src at every total buffer in
// totalB over one arrival sample path: warmup frames, then frames measured
// frames. It returns one Result per buffer, in totalB's order. Closed-loop
// sources draw their base frame once per frame and serve it at every
// buffer through that buffer's controllers; the open-loop per-buffer loops
// stay branch-free.
func drainCLR(src *sources, totalC float64, totalB []float64, warmup, frames int, span trace.Span) []Result {
	w := make([]float64, len(totalB))
	res := make([]Result, len(totalB))
	// The occupancy histogram samples the largest buffer's workload — the
	// recursion whose workload the asymptotics study.
	top := 0
	for j, b := range totalB {
		if b > totalB[top] {
			top = j
		}
	}
	drain := func(open []float64) float64 {
		if src.closedLoop() {
			for _, a := range open {
				src.draw()
				for j, b := range totalB {
					arrived, loss, next := src.step(j, a, w[j], totalC, b)
					res[j].add(arrived, loss, next)
					w[j] = next
				}
			}
			return w[top]
		}
		for j := range w {
			r, wj, b := &res[j], w[j], totalB[j]
			for _, a := range open {
				loss, next := lindleyStep(wj, a, totalC, b)
				r.add(a, loss, next)
				wj = next
			}
			w[j] = wj
		}
		return w[top]
	}
	// Warm-up frames accumulate too; the tallies restart at the boundary.
	src.pass(warmup, false, span, drain)
	for j := range res {
		res[j] = Result{Frames: frames, InitialW: w[j]}
	}
	src.pass(frames, true, span, drain)
	for j := range res {
		r := &res[j]
		r.FinalW = w[j]
		r.MeanWorkload /= float64(frames)
		if r.ArrivedCells > 0 {
			r.CLR = r.LostCells / r.ArrivedCells
		}
	}
	// Arrivals are shared across the coupled recursions; count them once.
	// Losses differ per buffer; count the largest buffer's.
	metCellsArrived.Add(res[0].ArrivedCells)
	metCellsLost.Add(res[top].LostCells)
	return res
}

// add accounts one frame: arrivals a, the cells it lost and the workload w
// after it. MeanWorkload holds the running workload sum until drainCLR
// divides it by the frame count.
func (r *Result) add(a, loss, w float64) {
	r.ArrivedCells += a
	if loss > 0 {
		r.LostCells += loss
		r.LossFrames++
	}
	r.MeanWorkload += w
	if w > r.MaxWorkload {
		r.MaxWorkload = w
	}
}

// drainBOP counts, over frames measured frames after warmup, how often the
// infinite-buffer workload of src exceeds each sorted threshold in thr.
// Closed-loop sources see Buffer = +Inf and zero loss in their feedback —
// the congestion signal is utilization alone.
func drainBOP(src *sources, totalC float64, thr []float64, warmup, frames int, span trace.Span) BOPResult {
	inf := math.Inf(1)
	res := BOPResult{Thresholds: thr}
	counts := make([]int, len(thr))
	var w float64
	drain := func(open []float64) float64 {
		wl := w
		if src.closedLoop() {
			for _, a := range open {
				src.draw()
				_, _, wl = src.step(0, a, wl, totalC, inf)
				res.add(wl, counts)
			}
		} else {
			for _, a := range open {
				_, wl = lindleyStep(wl, a, totalC, inf)
				res.add(wl, counts)
			}
		}
		w = wl
		return wl
	}
	// Warm-up frames are counted too; the tallies restart at the boundary.
	src.pass(warmup, false, span, drain)
	res.MaxW = 0
	clear(counts)
	src.pass(frames, true, span, drain)
	res.Prob = make([]float64, len(thr))
	for i, c := range counts {
		res.Prob[i] = float64(c) / float64(frames)
	}
	return res
}

// add accounts one frame-boundary workload w: the running maximum, and
// counts[k] for every sorted threshold Thresholds[k] that w exceeds.
func (r *BOPResult) add(w float64, counts []int) {
	if w > r.MaxW {
		r.MaxW = w
	}
	thr := r.Thresholds
	for j := len(thr) - 1; j >= 0; j-- {
		if w > thr[j] {
			for k := 0; k <= j; k++ {
				counts[k]++
			}
			break
		}
	}
}
