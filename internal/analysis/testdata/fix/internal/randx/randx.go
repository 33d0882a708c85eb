// Package randx stands in for the real internal/randx: the one place
// RNG construction is legal, so rngsource must stay silent here.
package randx

import "math/rand"

func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Stream stands in for randx.Stream.
type Stream struct{ r *rand.Rand }

func NewStream(seed int64) *Stream {
	return &Stream{rand.New(rand.NewSource(seed))}
}

func (s *Stream) Int63() int64 { return s.r.Int63() }
