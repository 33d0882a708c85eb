package repro_test

import (
	"testing"

	"repro/internal/telemetry"
)

// TestGoldenVerdictsMatchEstimates reads the committed smoke golden and
// holds every simulated point's convergence verdict to its estimate: a
// point reads no_loss exactly when its CLR is 0, so no point that lost
// cells claims "no loss" and no lossless point claims an interval. Only
// this invariant is asserted, not outcome counts, so a re-captured golden
// keeps it without edits.
func TestGoldenVerdictsMatchEstimates(t *testing.T) {
	man, err := telemetry.ReadManifest("results/golden/manifest.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, r := range man.Results {
		for _, s := range r.Series {
			if s.Lo == nil {
				continue // analytic series carry no verdicts
			}
			if len(s.Conv) != len(s.Y) {
				t.Errorf("%s %s: %d verdicts for %d points", r.ID, s.Label, len(s.Conv), len(s.Y))
				continue
			}
			for i, c := range s.Conv {
				points++
				switch c.Outcome {
				case "converged", "unconverged", "no_loss":
				default:
					t.Errorf("%s %s x=%g: unknown outcome %q", r.ID, s.Label, s.X[i], c.Outcome)
				}
				if (c.Outcome == "no_loss") != (s.Y[i] == 0) {
					t.Errorf("%s %s x=%g: CLR %g reads %s", r.ID, s.Label, s.X[i], s.Y[i], c.Outcome)
				}
			}
		}
	}
	if points == 0 {
		t.Fatal("golden manifest carries no convergence verdicts")
	}
}
