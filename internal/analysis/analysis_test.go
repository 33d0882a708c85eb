package analysis_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analysis"
)

// fixtureModule returns the absolute path of the fixture module shared
// by the per-analyzer tests.
func fixtureModule(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "fix"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// moduleRoot walks up from the working directory to the repository's
// go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// TestSuiteRegistersEightAnalyzers pins the suite's contents: DESIGN.md
// §11 documents exactly these eight invariants. This list is the single
// source of truth for the suite contract; cmd/repolint's tests derive
// their expectations from analysis.All() rather than repeating it.
func TestSuiteRegistersEightAnalyzers(t *testing.T) {
	want := []string{"rngsource", "walltime", "maporder", "printguard", "floateq", "pprofimport", "proflabels", "seedflow"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}

// TestRepositoryIsClean runs the whole suite over the real module: the
// invariants hold on the shipping tree, with any exceptions carried by
// justified //lint: waivers. This is the same gate CI applies via
// cmd/repolint, enforced from `go test ./...` as well.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint skipped in -short")
	}
	diags, err := analysis.LintModuleWith(moduleRoot(t), analysis.All(),
		analysis.RunOptions{Now: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestByName pins the -run subset resolution including its error shape.
func TestByName(t *testing.T) {
	got, err := analysis.ByName("seedflow", "floateq")
	if err != nil || len(got) != 2 || got[0].Name != "seedflow" || got[1].Name != "floateq" {
		t.Fatalf("ByName(seedflow, floateq) = %v, %v", got, err)
	}
	if _, err := analysis.ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}
