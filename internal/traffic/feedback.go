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
//
// A model that only manufactures FeedbackGenerators has sources whose
// whole state depends on the one queue they feed, so each replication
// serves a single buffer. A model that splits into an open-loop base and
// per-buffer controllers (ClosedLoopModel) lets one base path drive a
// whole buffer sweep.
type FeedbackGenerator interface {
	Generator
	// Observe delivers the multiplexer state after one served frame.
	Observe(fb Feedback)
}

// Controller is the feedback state of one closed-loop source at one
// buffer: the factor by which it scales its open-loop base frame, adapted
// after every served frame. Like a FeedbackGenerator it must be a
// deterministic function of the feedback sequence it observes.
type Controller interface {
	// Rate returns the factor applied to the source's next base frame.
	Rate() float64
	// Observe delivers the multiplexer state after one served frame.
	Observe(fb Feedback)
}

// ClosedLoopModel is a Model whose sources emit an open-loop base frame
// scaled by a feedback-driven rate: source i's frame is
// Base().NewGenerator(seed_i)'s draw times its controller's Rate(). The
// base stream is consumed at one draw per frame whatever the rate, so it
// does not depend on the feedback. The multiplexer therefore draws it once
// per replication and drives one controller per source per buffer size
// from it, which makes a buffer sweep cost one base path, not one per
// buffer.
//
// NewGenerator(seed) must stay the one-buffer form of the same source: its
// frames equal the base draw times the rate of a controller fed the same
// feedback, bit for bit.
type ClosedLoopModel interface {
	Model
	// Base returns the open-loop model whose frames the controllers scale.
	Base() Model
	// NewController returns a fresh controller in its initial state.
	NewController() Controller
}

// IsClosedLoopModel reports whether m splits into an open-loop base and
// per-buffer controllers (ClosedLoopModel).
func IsClosedLoopModel(m Model) bool {
	_, ok := m.(ClosedLoopModel)
	return ok
}
