package models

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/farima"
	"repro/internal/fgn"
	"repro/internal/mginf"
	"repro/internal/mmpp"
	"repro/internal/seed"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The generator oracle holds every generator family to its closed-form
// second-order statistics. For aggregation level m it estimates
//
//	V̂(m) = mean over non-overlapping m-blocks of (block sum − m·μ)²
//
// with the model's known mean μ, over many short, independently seeded
// replications, and demands that the replication CI hold
// traffic.Moments.VarSum(m). Short replications matter: under long-range
// dependence a few long paths give a CI too wide to see a 4% gap, while
// hundreds of short equilibrium-started paths resolve it.
//
// The oracle is a 99% test as a whole. Each of its N unpinned cells is
// held at level 1 − 1%/N (Bonferroni), so a correct generator fails it
// with probability at most 1%; at a per-cell 99% level, 44 cells would
// fail one by chance about a third of the time.
const (
	oracleFrames = 1000 // frames per replication; one block at m = 1000
	oracleAlpha  = 0.01 // family-wise error rate
	oracleSeed   = 1996
)

// oracleShort reports the -short form of the oracle, also run by every
// race build: an eighth of the replications, without V^1.5, and without
// m = 1000.
func oracleShort() bool { return testing.Short() || raceEnabled }

// oracleLevels returns the aggregation levels checked. At m = 1000 each
// replication holds a single block, so V̂(1000) is a mean of squared
// block sums, one per replication, whose skew the normal interval does
// not carry: a sample that misses the rare large sums reads low and
// reports a small spread as well. Over 800 replications the interval
// holds; over the -short form's 100 it does not (Z^0.975's first 100
// replications read z = −3.15 on the fbndp.1 draw and −4.16 on fbndp.2,
// against a bound of 3.66), so only the full form checks m = 1000.
func oracleLevels() []int {
	if oracleShort() {
		return []int{1, 10, 100}
	}
	return []int{1, 10, 100, 1000}
}

// oracleBand pins a cell whose V̂(m) is known to miss the model's V(m):
// the 99% CI of V̂/V measured at 800 × 1000 frames before the FBNDP tail
// draw was rewritten, rounded outward. A run passes the cell when its own
// 99% CI of V̂/V overlaps the band, so a move of the generator by more
// than the two intervals allow fails, toward V(m) or away from it.
type oracleBand struct{ lo, hi float64 }

// fbndpSmallM is known deviation #4 (EXPERIMENTS.md): FBNDP's Variance()
// is Ryu–Lowen's fractal form σ² = [1 + (Ts/T0)^α]·λTs, which assumes the
// crossover A is small against the frame duration Ts. At A/Ts = 0.10 (L)
// and 0.046 (the FBNDP half of Z^a) the generated variance at small m
// falls a few percent below it. V^v (A/Ts ≤ 0.021) and every cell at
// m ≥ 100 agree.
var fbndpSmallM = map[string]map[int]oracleBand{
	"L":       {1: {0.864, 0.899}, 10: {0.915, 0.990}},
	"Z^0.975": {1: {0.941, 1.001}},
	"Z^0.7":   {1: {0.959, 0.990}},
}

// oracleFamily is one generator under test, with its replication count
// for the full form. V^1.5 draws hundreds of ON/OFF transitions per frame
// (≈0.4 s per replication) and runs fewer replications; the -short form
// omits it, since a few replications of its heavy-tailed block sums give
// no usable CI.
type oracleFamily struct {
	name  string
	model traffic.Model
	reps  int
}

func oracleFamilies(t *testing.T) []oracleFamily {
	t.Helper()
	must := func(m traffic.Model, err error) traffic.Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	z975 := must(NewZ(0.975))
	fams := []oracleFamily{
		{"V^1.5", must(NewV(1.5)), 64},
		{"V^0.67", must(NewV(0.67)), 800},
		{"Z^0.975", z975, 800},
		{"Z^0.7", must(NewZ(0.7)), 800},
	}
	for _, p := range SOrders {
		fams = append(fams, oracleFamily{fmt.Sprintf("DAR(%d)[Z^0.975]", p), must(FitS(z975, p)), 800})
	}
	fams = append(fams, oracleFamily{"L", must(NewL()), 800})

	// The ExtSubstrates instances at H = 0.9 with the standard moments,
	// plus the F-ARIMA and MMPP sources of modelspec. The Gaussian
	// synthesisers run 1024-frame exact blocks, so each replication is one
	// exact block.
	fg := must(fgn.NewModel(0.9, Mean, Variance)).(*fgn.Model)
	fg.BlockLen = 1024
	fa := must(farima.New(0.4, Mean, Variance)).(*farima.Model)
	fa.BlockLen = 1024
	fams = append(fams,
		oracleFamily{"FGN(H=0.9)", fg, 800},
		oracleFamily{"M/G/inf(H=0.9)", must(mginf.NewFromMoments(Mean, Variance, 0.9, Ts, Ts)), 800},
		oracleFamily{"MMPP2(a=0.9)", must(mmpp.Fit(Mean, Variance, 0.9, Ts)), 800},
		oracleFamily{"F-ARIMA(d=0.4)", fa, 800},
	)
	if oracleShort() {
		// An eighth of the replications, without V^1.5 (fams[0]).
		fams = fams[1:]
		for i := range fams {
			fams[i].reps /= 8
		}
	}
	return fams
}

// aggVarReps returns, for each m in ms, one V̂(m) per replication.
func aggVarReps(m traffic.Model, label string, reps int, ms []int) [][]float64 {
	out := make([][]float64, len(ms))
	for i := range out {
		out[i] = make([]float64, reps)
	}
	mu := m.Mean()
	buf := make([]float64, oracleFrames)
	for r := 0; r < reps; r++ {
		traffic.Blocks(m.NewGenerator(seed.DeriveString(oracleSeed, label, uint64(r)))).Fill(buf)
		for i, agg := range ms {
			nb := len(buf) / agg
			var acc float64
			for b := 0; b < nb; b++ {
				d := -float64(agg) * mu
				for _, x := range buf[b*agg : (b+1)*agg] {
					d += x
				}
				acc += d * d
			}
			out[i][r] = acc / float64(nb)
		}
	}
	return out
}

func TestGeneratorOracle(t *testing.T) {
	fams := oracleFamilies(t)
	ms := oracleLevels()
	cells := 0
	for _, f := range fams {
		cells += len(ms) - len(fbndpSmallM[f.name])
	}
	zCell := stats.NormalQuantile(1 - oracleAlpha/2/float64(cells))
	z99 := stats.NormalQuantile(0.995)
	report := make([]string, len(fams))
	for fi, f := range fams {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			mo := traffic.NewMoments(f.model)
			vhat := aggVarReps(f.model, f.name, f.reps, ms)
			line := fmt.Sprintf("%-16s %3d reps:", f.name, f.reps)
			for i, m := range ms {
				want := mo.VarSum(m)
				ci := stats.ReplicationCI(vhat[i], 0.99)
				half := ci.Half / z99 // standard error
				line += fmt.Sprintf("  m=%d %.4g (V̂/V %.3f±%.3f)", m, ci.Point, ci.Point/want, ci.Half/want)
				if band, ok := fbndpSmallM[f.name][m]; ok {
					lo, hi := ci.Low()/want, ci.High()/want
					if hi < band.lo || lo > band.hi {
						t.Errorf("m=%d: V̂/V 99%% CI [%.4f, %.4f] misses the pinned deviation band [%.4f, %.4f]",
							m, lo, hi, band.lo, band.hi)
					}
					continue
				}
				if math.Abs(ci.Point-want) > zCell*half {
					t.Errorf("m=%d: V̂ = %.6g ± %.3g (%d reps, z = %.2f) excludes V(m) = %.6g",
						m, ci.Point, zCell*half, f.reps, zCell, want)
				}
			}
			report[fi] = line
		})
	}
	t.Cleanup(func() {
		t.Logf("%d unpinned cells, each at z = %.2f", cells, zCell)
		for _, l := range report {
			t.Log(l)
		}
	})
}
