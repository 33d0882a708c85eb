package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dar"
	"repro/internal/experiments"
	"repro/internal/fgn"
	"repro/internal/mginf"
	"repro/internal/models"
	"repro/internal/traffic"
)

// noFloor hides the NonIncreasingACF declaration of the model it wraps,
// so a CTS scan against it runs on the tripling rule alone. It keeps the
// model's range method, if any, so the full scans fill their memo as
// fast as the floored ones.
type noFloor struct {
	traffic.Model
	traffic.ACFRanger
}

// hideFloor returns m's full-scan view: a fresh Moments over noFloor.
func hideFloor(m traffic.Model) *traffic.Moments {
	if r, ok := m.(traffic.ACFRanger); ok {
		return traffic.NewMoments(noFloor{m, r})
	}
	return traffic.NewMoments(struct{ traffic.Model }{m})
}

// declaringModels returns one model of each family that declares a
// non-increasing ACF.
func declaringModels(t *testing.T) []traffic.Model {
	t.Helper()
	var out []traffic.Model
	add := func(m traffic.Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	add(models.NewL())
	for _, v := range models.VValues {
		add(models.NewV(v))
	}
	for _, a := range models.ZValues {
		add(models.NewZ(a))
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, z.X) // pure FBNDP, α = 0.8
	for _, h := range []float64{0.7, 0.9} {
		add(fgn.NewModel(h, models.Mean, models.Variance))
	}
	add(mginf.NewFromMoments(models.Mean, models.Variance, 0.85, 0.2, models.Ts))
	add(dar.NewDAR1(0.975, dar.GaussianMarginal(models.Mean, models.Variance)))
	for _, m := range out {
		if !traffic.ACFNonIncreasing(m) {
			t.Fatalf("%s does not declare a non-increasing ACF", m.Name())
		}
	}
	return out
}

// floorPoints are the operating points of Fig 4 (N = 100, c = 526, the
// practical grid) and of Figs 6 and 7 (N = 30, c = 538, the practical
// and the wide grid).
func floorPoints() []core.Operating {
	var ops []core.Operating
	grid := func(c float64, n int, msecs []float64) {
		for _, msec := range msecs {
			ops = append(ops, core.Operating{C: c, B: experiments.MsecToPerSourceCells(msec, c), N: n})
		}
	}
	grid(experiments.Fig4C, experiments.Fig4N, experiments.BufferGridMsec)
	grid(experiments.BopC, experiments.BopN, experiments.BufferGridMsec)
	grid(experiments.BopC, experiments.BopN, experiments.WideBufferGridMsec)
	return ops
}

// TestCTSFloorMatchesFullScan holds the floored CTS scan to the scan on
// the tripling rule alone: M and Rate must agree bit for bit for every
// declaring family at every Fig 4 and Fig 7 operating point, and the
// floored scan must report Converged. The full scan does not always:
// for V^v it runs into DefaultMaxM at most of these points.
//
// The last case pins what the floor returns where the tripling rule
// runs out of lags. Z^0.7 at 1000 ms (c = 538, N = 30) has m* = 3045
// and its objective first triples past m = 2·10⁶, so at maxM = 10⁵ the
// full scan stops unconverged. The floored scan returns the same M and
// Rate with Converged = true: the floor proves that no m, within maxM
// or past it, beats the incumbent.
func TestCTSFloorMatchesFullScan(t *testing.T) {
	check := func(m traffic.Model, full *traffic.Moments, op core.Operating, maxM int) core.CTSResult {
		t.Helper()
		got, err := core.CTS(m, op, maxM)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.CTSMoments(full, op, maxM)
		if err != nil {
			t.Fatal(err)
		}
		if got.M != want.M || got.Rate != want.Rate || !got.Converged {
			t.Errorf("%s at %+v, maxM %d: floored %+v, full scan %+v", m.Name(), op, maxM, got, want)
		}
		return want
	}
	ops := floorPoints()
	for _, m := range declaringModels(t) {
		full := hideFloor(m)
		if traffic.ACFNonIncreasing(full) {
			t.Fatalf("%s: the wrapped view still declares the floor", m.Name())
		}
		for _, op := range ops {
			check(m, full, op, 0)
		}
	}

	z, err := models.NewZ(0.7)
	if err != nil {
		t.Fatal(err)
	}
	op := core.Operating{C: experiments.BopC, B: experiments.MsecToPerSourceCells(1000, experiments.BopC), N: experiments.BopN}
	if want := check(z, hideFloor(z), op, 100000); want.Converged || want.M != 3045 {
		t.Errorf("Z^0.7 at 1000 ms, maxM 10⁵: full scan %+v, want m* = 3045 unconverged", want)
	}
}

// TestMixCTSFloorMatchesFullScan runs a mix of Z^0.9 and L, both
// declaring, against the same mix with the declarations hidden, over
// the Fig 7 grid at N = 30 split 15/15: the floor must change nothing.
func TestMixCTSFloorMatchesFullScan(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	l, err := models.NewL()
	if err != nil {
		t.Fatal(err)
	}
	mix := core.Mix{{Model: z, Count: 15}, {Model: l, Count: 15}}
	hidden := core.Mix{
		{Model: hideFloor(z), Count: 15},
		{Model: hideFloor(l), Count: 15},
	}
	n := float64(mix.TotalCount())
	for _, msec := range experiments.WideBufferGridMsec {
		totalC := n * experiments.BopC
		totalB := n * experiments.MsecToPerSourceCells(msec, experiments.BopC)
		got, err := core.MixCTS(mix, totalC, totalB, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MixCTS(hidden, totalC, totalB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.M != want.M || got.Rate != want.Rate || !got.Converged {
			t.Errorf("%v msec: floored %+v, full scan %+v", msec, got, want)
		}
	}
}

// TestNonIncreasingACFDeclarations checks each declaring model's memo
// against what it declares, over lags k ≤ 2¹⁶: r(k+1) ≤ r(k), and V(m)/m²
// does not increase. A DAR(2) whose ACF rises (ρ = 0.9, a = (0.1, 0.9):
// r(2) > r(1)) must not declare.
//
// V(m)/m², which the CTS floor reads, must not increase at all. The ACF
// check allows for rounding: the FBNDP and FGN lags are second
// differences ½∇²(k^e), e < 2, each off by up to a few ulps of
// (k+1)^e ≤ (k+1)², and past k ≈ 4·10⁴ that error exceeds the true
// step from r(k) to r(k+1).
func TestNonIncreasingACFDeclarations(t *testing.T) {
	const maxLag = 1 << 16
	for _, m := range declaringModels(t) {
		mo := traffic.NewMoments(m)
		pre := mo.Prefix(maxLag + 1)
		for k := 0; k < maxLag; k++ {
			k1 := float64(k + 1)
			if r0, r1 := mo.ACF(k), mo.ACF(k+1); r1 > r0+4*0x1p-52*k1*k1 {
				t.Errorf("%s: r(%d) = %v > r(%d) = %v", m.Name(), k+1, r1, k, r0)
				break
			}
		}
		for n := 1; n < maxLag; n++ {
			a, b := float64(n), float64(n+1)
			if v0, v1 := pre.VarSum(n)/(a*a), pre.VarSum(n+1)/(b*b); v1 > v0 {
				t.Errorf("%s: V(%d)/m² = %v > V(%d)/m² = %v", m.Name(), n+1, v1, n, v0)
				break
			}
		}
	}

	d, err := dar.New(0.9, []float64{0.1, 0.9}, dar.GaussianMarginal(models.Mean, models.Variance))
	if err != nil {
		t.Fatal(err)
	}
	if r1, r2 := d.ACF(1), d.ACF(2); !(r2 > r1) {
		t.Fatalf("DAR(2) ρ = 0.9, a = (0.1, 0.9): r(2) = %v ≤ r(1) = %v, want a rising ACF", r2, r1)
	}
	if traffic.ACFNonIncreasing(d) || traffic.ACFNonIncreasing(core.Moments(d)) {
		t.Fatal("DAR(2) with r(2) > r(1) declares a non-increasing ACF")
	}
}
