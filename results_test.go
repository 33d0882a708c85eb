package repro_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestAnalyticOutputsCommitted regenerates every analytic table and
// figure and compares each output byte for byte with the committed copy
// under results/, the files `repro -out results` writes. These outputs
// depend on no seed, so any difference is a change to the analytic
// machinery (V(m) memo, CTS scan, asymptotics) rather than a new random
// draw. Fig4 and Fig5 dominate the cost and are skipped under -short.
func TestAnalyticOutputsCommitted(t *testing.T) {
	want := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("table1", func(t *testing.T) {
		tab, err := experiments.Table1()
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.String(); got != string(want("table1.txt")) {
			t.Errorf("table1 differs from results/table1.txt:\n%s", got)
		}
	})
	drivers := []struct {
		id   string
		slow bool
		run  func() ([]*experiments.Result, error)
	}{
		{"fig1", false, experiments.Fig1},
		{"fig3", false, experiments.Fig3},
		{"fig4", true, experiments.Fig4},
		{"fig5", true, experiments.Fig5},
		{"fig6", false, experiments.Fig6},
		{"fig7", false, experiments.Fig7},
		{"extmpeg", false, experiments.ExtMPEG},
		{"extsub", false, experiments.ExtSubstrates},
		{"extweibull", false, experiments.ExtWeibull},
	}
	for _, d := range drivers {
		t.Run(d.id, func(t *testing.T) {
			if d.slow && testing.Short() {
				t.Skip("analytic figure too slow for -short")
			}
			rs, err := d.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) == 0 {
				t.Fatal("no results")
			}
			for _, r := range rs {
				if len(r.Render()) < 100 {
					t.Errorf("%s: implausibly short rendering", r.ID)
				}
				if got := r.CSV(); got != string(want(r.ID+".csv")) {
					t.Errorf("%s differs from results/%s.csv:\n%s", r.ID, r.ID, got)
				}
			}
		})
	}
}
