package fbndp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/randx"
	"repro/internal/traffic"
)

// TestZigguratTables checks the tables across the whole range of α: the
// top layer closes on f(0) to within 1e-12, the layer edges fall
// strictly from the base width to 0, the densities at the edges rise
// strictly to f(0), and the base edge r lies in the Pareto tail.
func TestZigguratTables(t *testing.T) {
	for _, alpha := range []float64{1e-3, 0.3, 0.72, 0.8, 0.9, 0.999} {
		z := newZiggurat(2 - alpha)
		top := zigLayers - 1
		if res := (z.f[top] + z.v/z.x[top] - z.gamma) / z.gamma; !(math.Abs(res) <= 1e-12) {
			t.Errorf("α = %v: closure residual %g", alpha, res)
		}
		if r := z.x[1]; !(r > 1) {
			t.Errorf("α = %v: base edge r = %v is not in the Pareto tail", alpha, r)
		}
		if z.x[zigLayers] != 0 || z.f[zigLayers] != z.gamma {
			t.Errorf("α = %v: top edge (%v, %v), want (0, γ = %v)", alpha, z.x[zigLayers], z.f[zigLayers], z.gamma)
		}
		for i := 0; i < zigLayers; i++ {
			if !(z.x[i+1] < z.x[i]) {
				t.Fatalf("α = %v: edge x[%d] = %v not below x[%d] = %v", alpha, i+1, z.x[i+1], i, z.x[i])
			}
			if i > 0 && !(z.f[i+1] > z.f[i]) {
				t.Fatalf("α = %v: f[%d] = %v not above f[%d] = %v", alpha, i+1, z.f[i+1], i, z.f[i])
			}
		}
	}
}

// zigExits draws n durations (units of A) from z and sorts them by the
// branch of draw that returned them. The tail exit is the only one that
// returns x ≥ r. A shadow stream, kept in step with s, replays each
// draw's first Uint64: a draw whose first abscissa lies below its layer's
// inner edge must return it, a rectangle exit; one that returns its first
// abscissa from above the edge is a wedge exit. A draw whose first wedge
// test failed redraws; it lands in neither sample, and the shadow copies
// s to catch up. Each sample is then drawn from f restricted to its
// region, whatever the share of the others. The rectangle sample keeps
// its first maxRect draws.
func zigExits(t *testing.T, z *ziggurat, s *randx.Stream, n, maxRect int) (rect, wedge, tail []float64) {
	t.Helper()
	shadow := *s
	r := z.x[1]
	for range n {
		i, first := z.layer(shadow.Uint64())
		x := z.draw(s)
		if first < z.x[i+1] {
			if x != first {
				t.Fatalf("rectangle draw returned %v, want its first abscissa %v", x, first)
			}
			if len(rect) < maxRect {
				rect = append(rect, x)
			}
			continue
		}
		shadow = *s
		switch {
		case x >= r:
			tail = append(tail, x)
		case i > 0 && x == first:
			wedge = append(wedge, x)
		}
	}
	return rect, wedge, tail
}

// zigCDF returns F(x), the CDF of the duration density in units of A.
func zigCDF(gamma, x float64) float64 {
	if x <= 1 {
		return -math.Expm1(-gamma * x)
	}
	return 1 - math.Exp(-gamma)*math.Pow(x, -gamma)
}

// regionCDF returns the CDF of a law on [0, r) given its mass(k, lo, hi)
// over any [lo, hi] inside [x[k+1], x[k]].
func regionCDF(z *ziggurat, mass func(k int, lo, hi float64) float64) func(float64) float64 {
	// below[k] is the mass below x[k], so the whole region holds below[1].
	var below [zigLayers + 1]float64
	for k := zigLayers - 1; k >= 1; k-- {
		below[k] = below[k+1] + mass(k, z.x[k+1], z.x[k])
	}
	return func(x float64) float64 {
		if x >= z.x[1] {
			return 1
		}
		k := zigLayers - 1
		for x >= z.x[k] {
			k--
		}
		return (below[k+1] + mass(k, z.x[k+1], x)) / below[1]
	}
}

// TestZigguratExitKS holds each exit of the ziggurat to f restricted to
// its region, at the simulated models' α:
//   - rectangle: under the staircase, density ∝ f(x[k]) on [x[k+1], x[k]);
//   - wedge: between staircase and curve, density ∝ f(x) − f(x[k]);
//   - tail: P(X ≤ x | X > r) = 1 − (r/x)^γ.
//
// The tail takes ≈ 0.2% of draws, so the run is long enough to give it
// thousands; the rectangle sample stops at 200,000.
func TestZigguratExitKS(t *testing.T) {
	const draws = 4_000_000
	for i, alpha := range durationAlphas {
		z := newZiggurat(2 - alpha)
		g, r := z.gamma, z.x[1]
		rect, wedge, tail := zigExits(t, z, randx.NewStream(int64(300+i)), draws, 200000)
		if len(tail) < 5000 || len(wedge) < 50000 {
			t.Fatalf("α = %v: %d wedge and %d tail exits in %d draws", alpha, len(wedge), len(tail), draws)
		}
		checkKSSample(t, fmt.Sprintf("α = %v rectangle", alpha), rect,
			regionCDF(z, func(k int, lo, hi float64) float64 { return z.f[k] * (hi - lo) }))
		checkKSSample(t, fmt.Sprintf("α = %v wedge", alpha), wedge,
			regionCDF(z, func(k int, lo, hi float64) float64 {
				return zigCDF(g, hi) - zigCDF(g, lo) - z.f[k]*(hi-lo)
			}))
		checkKSSample(t, fmt.Sprintf("α = %v tail", alpha), tail,
			func(x float64) float64 { return 1 - math.Pow(r/x, g) })
	}
}

// TestFillAllocations holds a generator's Fill to zero allocations.
func TestFillAllocations(t *testing.T) {
	m, err := NewModel(zParams())
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGenerator(1).(traffic.BlockGenerator)
	dst := make([]float64, 256)
	if n := testing.AllocsPerRun(20, func() { g.Fill(dst) }); n != 0 {
		t.Errorf("Fill allocates %v times per call, want 0", n)
	}
}

// TestZigguratBuiltOnFirstGenerator holds the tables to the generator
// path: NewModel, Validate and ACF leave the cache alone, and two
// generators made at once share the one table, equal to a fresh build.
// The γ is used by no other test; the entry is cleared first so that a
// -count run starts from the same empty cache.
func TestZigguratBuiltOnFirstGenerator(t *testing.T) {
	p := zParams()
	p.Alpha = 0.61
	gamma := 2 - p.Alpha
	ziggurats.Delete(gamma)
	m, err := NewModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = m.ACF(3)
	if _, ok := ziggurats.Load(gamma); ok {
		t.Fatal("a table was built before the first NewGenerator")
	}
	gens := make([]*generator, 2)
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i] = m.NewGenerator(int64(i)).(*generator)
		}()
	}
	wg.Wait()
	if gens[0].zig != gens[1].zig {
		t.Fatalf("generators hold tables %p and %p", gens[0].zig, gens[1].zig)
	}
	if *gens[0].zig != *newZiggurat(gamma) {
		t.Fatal("the cached table differs from a fresh build")
	}
}

// TestFrameDrawsAsDraw ties the toggle loop's in-line draw to
// ziggurat.draw, which the law tests and BenchmarkZigguratDraw run:
// two generators from one seed, one stepped by frame and one by a copy
// of frame that calls draw, must give the same frames bit for bit.
func TestFrameDrawsAsDraw(t *testing.T) {
	for _, p := range []Params{
		zParams(),
		{Alpha: 0.9, Lambda: 6250, T0: 3e-3, M: 15, Ts: 0.04}, // A ≈ Ts/100: many toggles per frame
	} {
		m, err := NewModel(p)
		if err != nil {
			t.Fatal(err)
		}
		g := m.NewGenerator(1996).(*generator)
		ref := m.NewGenerator(1996).(*generator)
		for n := range 2000 {
			if got, want := g.frame(), ref.frameByDraw(); got != want {
				t.Fatalf("α = %v, frame %d: %v, want %v", p.Alpha, n, got, want)
			}
		}
	}
}

// frameByDraw is generator.frame with each fresh duration taken from
// ziggurat.draw.
func (g *generator) frameByDraw() float64 {
	var onTime float64
	for i := range g.phases {
		on, remaining := g.phases[i].on, g.phases[i].remaining
		left := g.p.Ts
		for remaining < left {
			if on {
				onTime += remaining
			}
			left -= remaining
			on = !on
			remaining = g.dur.a * g.zig.draw(g.stream)
		}
		if on {
			onTime += left
		}
		g.phases[i] = phase{on: on, remaining: remaining - left}
	}
	return float64(randx.Poisson(g.rng, g.r*onTime))
}

// zigSink keeps BenchmarkZigguratDraw's draws live.
var zigSink float64

// BenchmarkZigguratDraw prices one fresh duration at Z's α.
func BenchmarkZigguratDraw(b *testing.B) {
	z := zigguratFor(2 - zParams().Alpha)
	s := randx.NewStream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zigSink += z.draw(s)
	}
}
