// Package diag provides convergence diagnostics for simulated estimates —
// the statistical half of the observability layer. A CLR of 1e-6 needs
// enormous sample sizes before its confidence interval is meaningful, and
// LRD estimators are notorious for converging slowly and failing silently
// (Clegg et al., arXiv:1303.6841); this package makes "has this estimate
// actually converged?" a first-class, machine-checkable question instead
// of a leap of faith.
//
// Building blocks:
//
//   - Assess: one verdict over a finished series of independent
//     replication estimates. It quarantines NaN/±Inf replications and
//     reads the same stats.ReplicationCI interval that the series'
//     confidence bounds come from, so a verdict and its bounds can never
//     disagree.
//   - Probe (health.go): NaN/Inf/underflow counters for numerical
//     kernels, free on the all-finite fast path.
//
// Everything is observational: nothing here perturbs simulation state or
// random streams, so fixed-seed outputs are bit-identical with
// diagnostics on or off.
package diag

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// maxRelCI is the convergence target: a relative 95% CI half-width of
// 50%. CLRs near 1e-6 are order-of-magnitude statements in the paper's
// plots, so ±50% is the widest interval that still supports the figures'
// qualitative claims.
const maxRelCI = 0.5

// Outcome classifies a verdict. Its value is the manifest's and the
// conv_points_total metric's label.
type Outcome string

const (
	// Converged: at least two finite replications, none quarantined, and
	// a relative 95% CI half-width of at most maxRelCI.
	Converged Outcome = "converged"
	// Unconverged: anything that is neither Converged nor NoLoss.
	Unconverged Outcome = "unconverged"
	// NoLoss: every replication is exactly 0 and none is non-finite. The
	// interval is empty, not exact; what n independent replications do
	// bound, at 95%, is each one's probability of any loss: 1 − 0.05^{1/n}.
	NoLoss Outcome = "no_loss"
)

// Verdict is the convergence assessment of one finished series of
// estimates (e.g. the per-replication CLRs of one sweep point).
type Verdict struct {
	N         int     // finite observations
	NonFinite int     // quarantined NaN/±Inf observations
	Mean      float64 // mean of finite observations
	RelCI     float64 // relative 95% CI half-width; +Inf when undefined
	Outcome   Outcome
}

// String renders the verdict for log lines.
func (v Verdict) String() string {
	if v.Outcome == NoLoss {
		return fmt.Sprintf("no loss (n=%d)", v.N)
	}
	state := "converged"
	if v.Outcome != Converged {
		state = "UNCONVERGED"
	}
	return fmt.Sprintf("%s (n=%d relCI=%.3g mean=%.4g nonfinite=%d)",
		state, v.N, v.RelCI, v.Mean, v.NonFinite)
}

// Assess renders the verdict for a finished series of independent
// replication estimates. Non-finite values are counted and left out of
// the interval, and any of them rules out Converged and NoLoss. RelCI is
// stats.ReplicationCI(finite, 0.95).Half / |Point|; it is undefined
// (+Inf) for fewer than two finite values or a zero mean.
func Assess(xs []float64) Verdict {
	finite := make([]float64, 0, len(xs))
	allZero := true
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		finite = append(finite, x)
		allZero = allZero && x == 0
	}
	ci := stats.ReplicationCI(finite, 0.95)
	v := Verdict{
		N:         len(finite),
		NonFinite: len(xs) - len(finite),
		Mean:      ci.Point,
		RelCI:     math.Inf(1),
		Outcome:   Unconverged,
	}
	if v.N >= 2 && ci.Point != 0 {
		v.RelCI = ci.Half / math.Abs(ci.Point)
	}
	switch {
	case v.NonFinite > 0:
	case v.N >= 1 && allZero:
		v.Outcome = NoLoss
	case v.RelCI <= maxRelCI:
		v.Outcome = Converged
	}
	return v
}
