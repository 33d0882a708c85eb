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
// thousands; the rectangle sample stops at 200,000. The nine checks share
// a family-wise level of 1% (Bonferroni, 1%/9 each), as the generator
// oracle shares one over its cells: nine checks at 1% each would fail a
// correct sampler on ≈ 9% of streams.
func TestZigguratExitKS(t *testing.T) {
	const draws = 4_000_000
	level := 0.01 / float64(3*len(durationAlphas))
	for i, alpha := range durationAlphas {
		z := newZiggurat(2 - alpha)
		g, r := z.gamma, z.x[1]
		rect, wedge, tail := zigExits(t, z, randx.NewStream(int64(300+i)), draws, 200000)
		if len(tail) < 5000 || len(wedge) < 50000 {
			t.Fatalf("α = %v: %d wedge and %d tail exits in %d draws", alpha, len(wedge), len(tail), draws)
		}
		checkKSSample(t, fmt.Sprintf("α = %v rectangle", alpha), rect,
			regionCDF(z, func(k int, lo, hi float64) float64 { return z.f[k] * (hi - lo) }), level)
		checkKSSample(t, fmt.Sprintf("α = %v wedge", alpha), wedge,
			regionCDF(z, func(k int, lo, hi float64) float64 {
				return zigCDF(g, hi) - zigCDF(g, lo) - z.f[k]*(hi-lo)
			}), level)
		checkKSSample(t, fmt.Sprintf("α = %v tail", alpha), tail,
			func(x float64) float64 { return 1 - math.Pow(r/x, g) }, level)
	}
}

// TestWedgeSqueezeExact holds the squeeze to the test it stands in for:
// wherever it settles a wedge point, y < f(x) must read as density
// says. Every layer of each table gets points uniform in its wedge, and
// points placed at, just inside and just outside the margins of its
// chord, its tangents and the curve itself; the kink layer gets points
// about x = 1, where its chord lies under f. At the simulated α the
// squeeze must also settle ≥ 90% of the wedge tests real draws make, so
// a squeeze that leaves every point to density fails.
func TestWedgeSqueezeExact(t *testing.T) {
	check := func(z *ziggurat, i uint64, x, y float64) {
		t.Helper()
		if !(x >= z.x[i+1] && x <= z.x[i] && y >= z.f[i] && y <= z.f[i+1]) {
			return
		}
		if under, ok := z.squeeze(i, x, y); ok && under != (y < z.density(x)) {
			t.Fatalf("γ = %v, layer %d, (x, y) = (%v, %v): squeeze says y < f(x) is %v, density says %v",
				z.gamma, i, x, y, under, !under)
		}
	}
	for k, alpha := range []float64{0.2, 0.5, 0.72, 0.8, 0.9, 0.97} {
		z := newZiggurat(2 - alpha)
		if !(z.x[z.kink+1] <= 1 && 1 < z.x[z.kink]) {
			t.Fatalf("α = %v: kink layer %d spans [%v, %v]", alpha, z.kink, z.x[z.kink+1], z.x[z.kink])
		}
		rng := randx.NewStream(int64(400 + k)).Rand()
		for i := uint64(1); i < zigLayers; i++ {
			lo, hi, flo, fhi := z.x[i+1], z.x[i], z.f[i], z.f[i+1]
			for range 1000 {
				check(z, i, lo+rng.Float64()*(hi-lo), flo+rng.Float64()*(fhi-flo))
			}
			xs := []float64{lo, hi, math.Nextafter(hi, lo)}
			for j := 1; j < 16; j++ {
				xs = append(xs, lo+float64(j)/16*(hi-lo))
			}
			if i == z.kink {
				xs = append(xs, 1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1-1e-6, 1+1e-6)
			}
			for _, x := range xs {
				l, r := x-lo, x-hi
				for _, b := range []float64{
					fhi + z.s[i]*l,
					fhi + z.d[i+1]*l,
					flo + z.d[i]*r,
					z.density(x),
				} {
					for _, e := range []float64{0, 1e-15, 1e-12, 0.999e-9, 1.001e-9, 2e-9, 1e-6} {
						check(z, i, x, b*(1+e))
						check(z, i, x, b*(1-e))
					}
					for _, y := range []float64{
						b * (1 + squeezeTol), b * (1 - squeezeTol),
						math.Nextafter(b*(1+squeezeTol), 0), math.Nextafter(b*(1+squeezeTol), 2*b),
						math.Nextafter(b*(1-squeezeTol), 0), math.Nextafter(b*(1-squeezeTol), 2*b),
					} {
						check(z, i, x, y)
					}
				}
			}
		}
	}
	for k, alpha := range durationAlphas {
		z := newZiggurat(2 - alpha)
		s, shadow := randx.NewStream(int64(500+k)), randx.NewStream(int64(500+k))
		const draws = 1_000_000
		var c drawCount
		for range draws {
			if got, want := c.draw(t, z, s), z.draw(shadow); got != want {
				t.Fatalf("α = %v: counted draw %v, ziggurat.draw %v", alpha, got, want)
			}
		}
		settled := 1 - float64(c.fallThrough)/float64(c.wedgeTests)
		t.Logf("α = %v: %.2f%% of draws leave the first compare (each called exp or pow before the squeeze), %.2f%% still call exp or pow; the squeeze settles %.1f%% of %d wedge tests",
			alpha, 100*float64(c.redrew)/draws, 100*float64(c.evaluated)/draws, 100*settled, c.wedgeTests)
		if settled < 0.9 {
			t.Errorf("α = %v: the squeeze settles %.1f%% of wedge tests, want ≥ 90%%", alpha, 100*settled)
		}
	}
}

// drawCount tallies what redraw does over many draws.
type drawCount struct {
	redrew, evaluated       int // draws that reach redraw, and that call exp or pow
	wedgeTests, fallThrough int // wedge tests made, and left to density
}

// draw is ziggurat.draw with its work counted. Each wedge test it makes
// is also checked against density, settled or not.
func (c *drawCount) draw(t *testing.T, z *ziggurat, s *randx.Stream) float64 {
	t.Helper()
	i, x := z.layer(s.Uint64())
	if x < z.x[i+1] {
		return x
	}
	c.redrew++
	evaluated := false
	for {
		if i == 0 {
			evaluated = true
			x = z.x[1] * math.Pow(float64(s.Uint64()>>11+1)*0x1p-53, -1/z.gamma)
			break
		}
		y := z.f[i] + float64(s.Uint64()>>11)*0x1p-53*(z.f[i+1]-z.f[i])
		c.wedgeTests++
		under, ok := z.squeeze(i, x, y)
		if exact := y < z.density(x); !ok {
			c.fallThrough++
			evaluated = true
			under = exact
		} else if under != exact {
			t.Fatalf("γ = %v, layer %d, (x, y) = (%v, %v): squeeze says y < f(x) is %v", z.gamma, i, x, y, under)
		}
		if under {
			break
		}
		if i, x = z.layer(s.Uint64()); x < z.x[i+1] {
			break
		}
	}
	if evaluated {
		c.evaluated++
	}
	return x
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

// BenchmarkZigguratDraw prices one fresh duration at each simulated α
// (L, Z^a and V^v), whose tables differ in how many layers lie beyond A.
func BenchmarkZigguratDraw(b *testing.B) {
	for _, alpha := range durationAlphas {
		b.Run(fmt.Sprintf("alpha=%v", alpha), func(b *testing.B) {
			z := zigguratFor(2 - alpha)
			s := randx.NewStream(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zigSink += z.draw(s)
			}
		})
	}
}
