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
// draw. Every output is regenerated under -short too: with the CTS
// scan's floor the whole test takes well under a second.
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
		id  string
		run func() ([]*experiments.Result, error)
	}{
		{"fig1", experiments.Fig1},
		{"fig3", experiments.Fig3},
		{"fig4", experiments.Fig4},
		{"fig5", experiments.Fig5},
		{"fig6", experiments.Fig6},
		{"fig7", experiments.Fig7},
		{"extmpeg", experiments.ExtMPEG},
		{"extsub", experiments.ExtSubstrates},
		{"extweibull", experiments.ExtWeibull},
	}
	for _, d := range drivers {
		t.Run(d.id, func(t *testing.T) {
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

// TestFig2Committed regenerates Fig2 as `repro -exp fig2 -out results`
// does (500 frames, default seed) and compares both files byte for byte.
// Unlike the simulated CLR figures it takes well under a second, so it
// pins the sample path of ten Z^0.7 FBNDP sources and their DAR(1) match.
func TestFig2Committed(t *testing.T) {
	r, err := experiments.Fig2(500, experiments.DefaultSim.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{"fig2.txt": r.Render(), "fig2.csv": r.CSV()} {
		want, err := os.ReadFile(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("Fig2 differs from results/%s", name)
		}
	}
}
