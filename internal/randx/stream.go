package randx

import (
	"math/rand"
	"sync"
)

// The shape of math/rand's additive lagged-Fibonacci source: output k is
// x_k = x_{k−streamLen} + x_{k−streamTap} (mod 2⁶⁴), so the last
// streamLen outputs are the whole state.
const (
	streamLen  = 607
	streamTap  = 273
	streamMask = 1<<63 - 1
)

// Stream is math/rand's default uniform source made concrete: seeded from
// rand.NewSource(seed), it yields exactly that source's sequence, but its
// Uint64, Int63 and Float64 methods are ordinary methods the compiler can
// inline into a hot loop instead of an interface call through *rand.Rand.
// Rand returns a *rand.Rand over the same state, so draws through either
// view advance one sequence. A Stream is not safe for concurrent use.
//
// vec is a ring of the last streamLen outputs, walked downwards as
// math/rand walks it. Output k overwrites x_{k−streamLen} at vec[feed−1];
// x_{k−streamTap} sits streamTap slots above it, so one index is the
// whole position.
type Stream struct {
	feed int
	vec  [streamLen]int64
}

// NewStream returns a Stream that produces the same sequence as
// rand.NewSource(seed). Like NewRand, it is a seed sink: hand it a seed
// derived with package seed.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// scratchSources recycles the math/rand sources that Seed reads a seeded
// state from, so priming a stream allocates nothing past the Stream.
var scratchSources = sync.Pool{New: func() any { return rand.NewSource(0) }}

// Seed re-primes s to the start of rand.NewSource(seed)'s sequence. It
// reads the first streamLen outputs of a source seeded by math/rand
// itself: after that many steps the recurrence has overwritten every
// slot of the ring with one of them. Undoing those steps, last first,
// restores the seeded state, so the outputs are served again from the
// start. Nothing of s's earlier state survives, so rand.Rand.Seed through
// the Rand view re-primes s the same way.
func (s *Stream) Seed(seed int64) {
	src := scratchSources.Get().(rand.Source64)
	src.Seed(seed)
	start := streamLen - streamTap
	for k := range streamLen {
		feed := start - 1 - k
		if feed < 0 {
			feed += streamLen
		}
		s.vec[feed] = int64(src.Uint64())
	}
	scratchSources.Put(src)
	// Undo the steps from the last, whose tap was slot 0 and feed start,
	// each subtracting the word at its tap from the word at its feed.
	for tap := range streamLen {
		feed := start + tap
		if feed >= streamLen {
			feed -= streamLen
		}
		s.vec[feed] -= s.vec[tap]
	}
	s.feed = start
}

// Uint64 returns the next 64-bit value of the sequence.
func (s *Stream) Uint64() uint64 {
	feed := s.feed - 1
	if feed < 0 {
		feed += streamLen
	}
	tap := feed + streamTap
	if tap >= streamLen {
		tap -= streamLen
	}
	s.feed = feed
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x)
}

// Int63 returns the next value as a non-negative int64, as
// rand.Source.Int63 does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & streamMask) }

// Float64 returns a uniform value in [0, 1) by rand.Rand.Float64's exact
// algorithm, so the two draw the same values from the same sequence.
func (s *Stream) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		//lint:floateq rand.Rand.Float64 redraws exactly when rounding reaches 1
		if f != 1 {
			return f
		}
	}
}

// Rand returns a *rand.Rand drawing from s, for the variates only
// rand.Rand provides (NormFloat64, ExpFloat64, Intn, ...). Its draws and
// s's own advance one sequence.
func (s *Stream) Rand() *rand.Rand { return rand.New(s) }
