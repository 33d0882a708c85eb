package main

import (
	"testing"

	"repro/internal/telemetry"
)

// TestCompareResultConv pins the exact comparison of the per-point
// convergence records: a quarantined non-finite observation or a lost
// replication is drift even when every estimate matches, and identical
// records are not.
func TestCompareResultConv(t *testing.T) {
	conv := func(n, nonFinite int) telemetry.ConvRecord {
		return telemetry.ConvRecord{N: n, NonFinite: nonFinite, RelCI: 0.1, Outcome: "converged"}
	}
	result := func(c ...telemetry.ConvRecord) telemetry.ResultRecord {
		return telemetry.ResultRecord{ID: "fig8a", Series: []telemetry.SeriesRecord{{
			Label: "V^1",
			X:     []float64{0, 1},
			Y:     []float64{1e-3, 1e-4},
			Lo:    []float64{5e-4, 5e-5},
			Hi:    []float64{2e-3, 2e-4},
			Conv:  c,
		}}}
	}
	golden := result(conv(2, 0), conv(2, 0))
	for _, tc := range []struct {
		name   string
		cand   telemetry.ResultRecord
		drifts int
	}{
		{"identical", result(conv(2, 0), conv(2, 0)), 0},
		{"rel_ci and outcome are not compared", result(telemetry.ConvRecord{N: 2, RelCI: 0.6, Outcome: "unconverged"}, conv(2, 0)), 0},
		{"nonfinite mismatch", result(conv(2, 0), conv(2, 1)), 1},
		{"n mismatch", result(conv(1, 0), conv(2, 0)), 1},
		{"both points differ", result(conv(3, 0), conv(2, 2)), 2},
		{"conv records missing", result(), 1},
		{"extra conv record", result(conv(2, 0), conv(2, 0), conv(2, 0)), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := differ{}
			d.compareResult(golden, tc.cand)
			if d.drifts != tc.drifts {
				t.Errorf("drifts = %d, want %d", d.drifts, tc.drifts)
			}
			if d.seriesSeen != 1 {
				t.Errorf("seriesSeen = %d, want 1", d.seriesSeen)
			}
		})
	}
}

// TestCompareCI sorts moved estimates into inside both intervals,
// overlapping intervals only, and disjoint intervals, and ignores points
// that did not move.
func TestCompareCI(t *testing.T) {
	series := func(y, lo, hi float64) telemetry.SeriesRecord {
		return telemetry.SeriesRecord{Label: "Z^0.7", Y: []float64{1, y}, Lo: []float64{0, lo}, Hi: []float64{2, hi}}
	}
	golden := series(1e-4, 5e-5, 2e-4)
	for _, tc := range []struct {
		name                    string
		cand                    telemetry.SeriesRecord
		moved, overlap, disjoin int
	}{
		{"unmoved", series(1e-4, 4e-5, 3e-4), 0, 0, 0},
		{"inside both", series(1.5e-4, 9e-5, 3e-4), 1, 0, 0},
		{"candidate outside golden CI", series(3e-4, 1.5e-4, 5e-4), 1, 1, 0},
		{"golden outside candidate CI", series(1.5e-4, 1.2e-4, 1.8e-4), 1, 1, 0},
		{"disjoint", series(5e-4, 3e-4, 7e-4), 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d differ
			d.compareCI("fig8b/Z^0.7", golden, tc.cand, 0)
			if d.moved != tc.moved || d.overlapOnly != tc.overlap || d.disjoint != tc.disjoin {
				t.Errorf("moved %d, overlap only %d, disjoint %d; want %d, %d, %d",
					d.moved, d.overlapOnly, d.disjoint, tc.moved, tc.overlap, tc.disjoin)
			}
		})
	}
}
