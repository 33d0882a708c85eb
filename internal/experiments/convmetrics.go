package experiments

import (
	"repro/internal/diag"
	"repro/internal/telemetry"
)

// publishConvergence totals one grid point's convergence verdict in the
// process registry, so the manifest's final metrics snapshot counts them:
// conv_points_total{outcome} counts verdicts by outcome (converged,
// unconverged, no_loss) and conv_nonfinite_total accumulates quarantined
// observations (the per-series conv records, which manifestdiff compares,
// carry the same counts point by point). Purely observational: reads the
// verdict, never the estimates.
func publishConvergence(v diag.Verdict) {
	telemetry.Default.Counter("conv_points_total", telemetry.L("outcome", string(v.Outcome))).Inc()
	if v.NonFinite > 0 {
		telemetry.Default.Counter("conv_nonfinite_total").Add(int64(v.NonFinite))
	}
}
