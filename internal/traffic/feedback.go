package traffic

import "math"

// Feedback is the per-frame multiplexer state handed to closed-loop
// sources by the multiplexer's Lindley drains (package mux). All quantities
// describe the frame that has just been served, after its Lindley update:
// the source observing the feedback may use it to shape the *next* frame
// it emits.
//
// The paper's sources are strictly open-loop; Feedback is the tap that
// lets rate-adaptive extensions (e.g. the AIMD controller in
// internal/models) close the loop while the open-loop models remain
// untouched.
type Feedback struct {
	// Frame counts served frames since the simulation (including warm-up)
	// began, starting at 1 for the first served frame.
	Frame int
	// W is the multiplexer workload (total cells queued) after the frame.
	W float64
	// Buffer is the total buffer B in cells; +Inf for an infinite-buffer
	// (BOP) run. Controllers must tolerate both B = 0 and B = +Inf.
	Buffer float64
	// Capacity is the service volume C in cells per frame.
	Capacity float64
	// Loss is the cell volume lost during the frame (0 on infinite
	// buffers).
	Loss float64
	// Utilization is the fraction of the service capacity actually used
	// during the frame: min(W_prev + arrivals, C)/C ∈ [0, 1].
	Utilization float64
}

// Occupancy returns the buffer occupancy signal a controller should react
// to: W/Buffer for a finite non-empty buffer, else the link utilization
// (the only congestion signal a zero or infinite buffer exposes besides
// loss).
func (f Feedback) Occupancy() float64 {
	if f.Buffer > 0 && !math.IsInf(f.Buffer, 1) {
		return f.W / f.Buffer
	}
	return f.Utilization
}

// FeedbackGenerator is a Generator whose emission adapts to multiplexer
// feedback — a closed-loop source. The multiplexer calls Observe
// exactly once per simulated frame (warm-up included), immediately after
// the frame's Lindley update and before the next NextFrame call, so the
// generator sees an uninterrupted queue-state sequence.
//
// Implementations must remain deterministic functions of (seed, feedback
// sequence): given the same seed and the same sequence of Observe calls,
// the emitted frames must be bit-identical. The multiplexer guarantees the
// feedback sequence itself is deterministic, so closed-loop runs stay
// reproducible across repeats and worker counts.
//
// A FeedbackGenerator should NOT also implement BlockGenerator: frames
// must be drawn one at a time so each one can react to the latest
// feedback. The multiplexer ignores a Fill method on closed-loop sources.
type FeedbackGenerator interface {
	Generator
	// Observe delivers the multiplexer state after one served frame.
	Observe(fb Feedback)
}

// IsClosedLoop reports whether g adapts to multiplexer feedback, and so
// must be drawn and fed back one frame at a time.
func IsClosedLoop(g Generator) bool {
	_, ok := g.(FeedbackGenerator)
	return ok
}

// IsClosedLoopModel reports whether m manufactures closed-loop sources,
// by probing one throwaway generator. Callers that plan a coupled buffer
// sweep use this to fall back to per-buffer runs instead.
func IsClosedLoopModel(m Model) bool {
	if m == nil {
		return false
	}
	//lint:seedflow throwaway probe generator: only its dynamic type is inspected, it never emits a frame
	return IsClosedLoop(m.NewGenerator(0))
}
