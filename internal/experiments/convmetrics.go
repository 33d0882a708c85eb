package experiments

import (
	"math"

	"repro/internal/diag"
	"repro/internal/telemetry"
)

// publishConvergence mirrors one grid point's convergence verdict into the
// process registry, so a live -telemetry scrape (/metrics, /vars) shows
// convergence evolving point by point, and the manifest's final metrics
// snapshot totals it: conv_points_total{outcome} counts verdicts,
// conv_rel_ci and conv_ess track the most recent point's diagnostics,
// and conv_nonfinite_total accumulates quarantined observations (the
// per-series conv records, which manifestdiff compares, carry the same
// count point by point).
//
// Purely observational: reads the verdict, never the estimates. Undefined
// RelCI (fewer than two finite observations) is encoded as -1, mirroring
// the manifest's ConvRecord — gauges must stay JSON-encodable.
func publishConvergence(v diag.Verdict) {
	outcome := "converged"
	if !v.Converged {
		outcome = "unconverged"
	}
	telemetry.Default.Counter("conv_points_total", telemetry.L("outcome", outcome)).Inc()
	relCI := v.RelCI
	if math.IsNaN(relCI) || math.IsInf(relCI, 0) {
		relCI = -1
	}
	telemetry.Default.Gauge("conv_rel_ci").Set(relCI)
	ess := v.ESS
	if math.IsNaN(ess) || math.IsInf(ess, 0) {
		ess = 0
	}
	telemetry.Default.Gauge("conv_ess").Set(ess)
	if v.NonFinite > 0 {
		telemetry.Default.Counter("conv_nonfinite_total").Add(int64(v.NonFinite))
	}
}
