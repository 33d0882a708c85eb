package main

import (
	"testing"
	"time"

	"repro/internal/analysis"
)

// TestLintClean holds this module to the repository's analyzers: it lives
// outside the repository module, so the root's TestRepositoryIsClean does
// not reach it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint skipped in -short")
	}
	diags, err := analysis.LintModuleWith(".", analysis.All(), analysis.RunOptions{Now: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
