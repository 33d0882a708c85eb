package randx

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// streamSeeds covers zero, negative, the paper's year, the edges of
// math/rand's modulo-(2³¹−1) seed reduction and a seed past 32 bits.
var streamSeeds = []int64{0, -1, 1996, 1<<31 - 1, 1 << 40, math.MinInt64}

// streamDraws spans three full turns of the 607-word state, so the served
// sequence crosses the point where the recurrence starts reading outputs
// produced by the Stream itself.
const streamDraws = 3 * streamLen

// checkAgainstMathRand interleaves s's concrete Float64 with every method
// of its Rand view and holds each draw to ref bit for bit.
func checkAgainstMathRand(t *testing.T, label string, s *Stream, ref *rand.Rand) {
	t.Helper()
	r := s.Rand()
	got, want := make([]byte, 13), make([]byte, 13)
	for i := 0; i < streamDraws; i++ {
		var g, w uint64
		switch i % 9 {
		case 0:
			g, w = math.Float64bits(s.Float64()), math.Float64bits(ref.Float64())
		case 1:
			g, w = math.Float64bits(r.Float64()), math.Float64bits(ref.Float64())
		case 2:
			g, w = uint64(r.Int63()), uint64(ref.Int63())
		case 3:
			g, w = r.Uint64(), ref.Uint64()
		case 4:
			g, w = uint64(r.Uint32()), uint64(ref.Uint32())
		case 5:
			g, w = uint64(r.Intn(1000)), uint64(ref.Intn(1000))
		case 6:
			g, w = math.Float64bits(r.NormFloat64()), math.Float64bits(ref.NormFloat64())
		case 7:
			g, w = math.Float64bits(r.ExpFloat64()), math.Float64bits(ref.ExpFloat64())
		case 8:
			r.Read(got)
			ref.Read(want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s draw %d: Read %x, want %x", label, i, got, want)
			}
		}
		if g != w {
			t.Fatalf("%s draw %d (method %d): got %#x, want %#x", label, i, i%9, g, w)
		}
	}
}

// TestStreamIsMathRand holds Stream and its Rand view to
// rand.New(rand.NewSource(seed)) draw for draw.
func TestStreamIsMathRand(t *testing.T) {
	for _, seed := range streamSeeds {
		checkAgainstMathRand(t, "NewStream", NewStream(seed), rand.New(rand.NewSource(seed)))
	}
}

// TestStreamSeedRestarts re-seeds a stream that has already drawn, through
// Seed and through its Rand view, and requires a fresh NewStream's
// sequence from there on.
func TestStreamSeedRestarts(t *testing.T) {
	s := NewStream(42)
	for i := 0; i < 1000; i++ {
		s.Float64()
	}
	for _, seed := range streamSeeds {
		s.Seed(seed)
		checkAgainstMathRand(t, "Seed", s, rand.New(rand.NewSource(seed)))
		fresh := NewStream(seed)
		if *s == *fresh {
			t.Fatalf("seed %d: stream unchanged by drawing", seed)
		}
		s.Rand().Seed(seed)
		if *s != *fresh {
			t.Fatalf("seed %d: Rand().Seed state differs from NewStream", seed)
		}
	}
}

// TestNewRandIsMathRand holds the construction point to math/rand's own
// seeding.
func TestNewRandIsMathRand(t *testing.T) {
	for _, seed := range streamSeeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < streamDraws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestStreamAllocations holds a primed stream to one allocation, the
// Stream itself: Seed reads math/rand's seeded state from a recycled
// source.
func TestStreamAllocations(t *testing.T) {
	NewStream(1) // warm the scratch-source pool
	var s *Stream
	if a := testing.AllocsPerRun(100, func() { s = NewStream(7) }); a > 1 {
		t.Errorf("NewStream allocates %v times, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.Seed(9) }); a != 0 {
		t.Errorf("Seed allocates %v times, want 0", a)
	}
}

var sinkFloat float64

func BenchmarkStreamFloat64(b *testing.B) {
	s := NewStream(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Float64()
	}
	sinkFloat = sum
}

// BenchmarkRandFloat64 is the baseline BenchmarkStreamFloat64 replaces:
// the same sequence through rand.Rand's interface call into its source.
func BenchmarkRandFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += r.Float64()
	}
	sinkFloat = sum
}

func BenchmarkNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewStream(int64(i))
	}
}
