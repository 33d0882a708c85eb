package dar

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// runLengths reads the run lengths off a DAR(1) path with a continuous
// marginal, where a repeat equals the frame before it and an innovation
// (almost surely) does not. It returns the number of repeats after each
// innovation, dropping the runs cut by the path's ends, and the number
// of frames equal to their predecessor.
func runLengths(xs []float64) (runs []int, repeats int) {
	k := -1 // no innovation seen yet
	for i := 1; i < len(xs); i++ {
		if xs[i] == xs[i-1] {
			repeats++
			if k >= 0 {
				k++
			}
			continue
		}
		if k >= 0 {
			runs = append(runs, k)
		}
		k = 0
	}
	return runs, repeats
}

// TestRunLengthLaw holds the run sampler to its law at a fixed seed: the
// repeats between innovations are Geometric(1−ρ) by a chi-square test at
// the 0.1% level, and the share of frames that repeat is ρ within five
// standard errors. ρ = 0.99 puts half the runs past the ρ^k table, so its
// histogram also checks the redraw that continues them.
func TestRunLengthLaw(t *testing.T) {
	const n = 1 << 20
	for _, rho := range []float64{0.5, 0.82, 0.99} {
		p, err := NewDAR1(rho, gauss())
		if err != nil {
			t.Fatal(err)
		}
		xs := traffic.FillFrames(p.NewGenerator(1996).(traffic.BlockGenerator), n)
		runs, repeats := runLengths(xs)

		frac := float64(repeats) / float64(n-1)
		if se := math.Sqrt(rho * (1 - rho) / n); math.Abs(frac-rho) > 5*se {
			t.Errorf("ρ = %v: repeat fraction %v, want %v ± %v", rho, frac, rho, 5*se)
		}

		// Bins k = 0..kmax−1 and a tail bin k ≥ kmax holding ≈10% of runs.
		kmax := int(math.Ceil(math.Log(0.1) / math.Log(rho)))
		obs := make([]float64, kmax+1)
		for _, k := range runs {
			obs[min(k, kmax)]++
		}
		total := float64(len(runs))
		var chi2 float64
		for k, o := range obs {
			e := total * math.Pow(rho, float64(k))
			if k < kmax {
				e *= 1 - rho
			}
			chi2 += (o - e) * (o - e) / e
		}
		df := float64(kmax)
		// Wilson–Hilferty approximation to the chi-square 99.9% quantile.
		c := 2 / (9 * df)
		crit := df * math.Pow(1-c+stats.NormalQuantile(0.999)*math.Sqrt(c), 3)
		t.Logf("ρ = %v: %d runs, chi-square %.1f (99.9%% point %.1f), repeat fraction %.5f", rho, len(runs), chi2, crit, frac)
		if chi2 > crit {
			t.Errorf("ρ = %v: chi-square %.1f over %d bins exceeds %.1f", rho, chi2, kmax+1, crit)
		}
	}
}

// TestRunLengthEdges covers the ends of ρ's range: at ρ = 0 every frame
// innovates, and at ρ = 1−1e-9 the table stops at runCap entries and the
// path keeps going one redraw per runCap frames, holding its first value.
func TestRunLengthEdges(t *testing.T) {
	p, err := NewDAR1(0, gauss())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.runPow) != 0 {
		t.Errorf("ρ = 0: table has %d entries, want 0", len(p.runPow))
	}
	if runs, repeats := runLengths(traffic.Generate(p.NewGenerator(3), 10000)); repeats != 0 || len(runs) != 9998 {
		t.Errorf("ρ = 0: %d repeats and %d runs in 10000 frames, want 0 and 9998", repeats, len(runs))
	}

	p, err = NewDAR1(1-1e-9, gauss())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.runPow) != runCap {
		t.Fatalf("ρ = 1−1e-9: table has %d entries, want %d", len(p.runPow), runCap)
	}
	g := p.NewGenerator(3).(*generator)
	first := g.NextFrame()
	dst := make([]float64, 4096+3)
	for round := 0; round < 64; round++ {
		g.Fill(dst)
		for i, v := range dst {
			if v != first {
				t.Fatalf("ρ = 1−1e-9: round %d frame %d = %v, want the held %v", round, i, v, first)
			}
		}
		if g.owed > runCap || !g.more {
			t.Fatalf("ρ = 1−1e-9: round %d owes %d repeats (more %v), want ≤ %d and more", round, g.owed, g.more, runCap)
		}
	}
}

// TestRunLengthGuideExact holds the guide-table scan to the plain count
// K = #{k : u < ρ^k} over the table, at every bucket edge j/256 and every
// ρ^k, each ±1 ulp, and at 10⁶ stream uniforms, across ρ from 0 to one
// past the table's reach.
func TestRunLengthGuideExact(t *testing.T) {
	for _, rho := range []float64{0, 0.3, 0.5, 0.821, 0.975, 0.99, 1 - 0x1p-20} {
		p, err := NewDAR1(rho, gauss())
		if err != nil {
			t.Fatal(err)
		}
		check := func(u float64) {
			if !(u >= 0 && u < 1) {
				return
			}
			want := 0
			for want < len(p.runPow) && u < p.runPow[want] {
				want++
			}
			if k, more := p.runLength(u); k != want || more != (want == runCap) {
				t.Fatalf("ρ = %v, u = %v: runLength = %d (more %v), plain count %d", rho, u, k, more, want)
			}
		}
		near := func(x float64) {
			check(math.Nextafter(x, 0))
			check(x)
			check(math.Nextafter(x, 1))
		}
		for j := 0; j <= guideLen; j++ {
			near(float64(j) / guideLen)
		}
		for _, pw := range p.runPow {
			near(pw)
		}
		src := randx.NewStream(1996)
		for range 1_000_000 {
			check(src.Float64())
		}
	}
}
