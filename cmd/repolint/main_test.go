package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// suiteNames derives the expected analyzer set from the registry itself:
// the suite contract (exact names and order) is pinned once, in
// internal/analysis's TestSuiteRegistersSevenAnalyzers, and every other
// consumer — this multichecker included — follows the registry.
func suiteNames() []string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return names
}

// TestListRegistersAllAnalyzers checks the multichecker wires up the
// full suite: every analyzer name appears in -list output and the exit
// code is zero.
func TestListRegistersAllAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	want := suiteNames()
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != len(want) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", got, len(want), out)
	}
	for _, name := range want {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
}

func brokenmodDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "brokenmod"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBrokenModuleFailsEveryAnalyzer lints a fixture module carrying
// one violation per analyzer: the exit code must be non-zero and every
// analyzer must appear among the findings.
func TestBrokenModuleFailsEveryAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", brokenmodDir(t)}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run(-C brokenmod) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	// go vet's file:line:col form, with module-relative paths.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if file, _, _ := strings.Cut(line, ":"); file == "" || filepath.IsAbs(file) {
			t.Errorf("finding not in module-relative file:line:col form: %s", line)
		}
	}
	for _, name := range suiteNames() {
		if !strings.Contains(out, "["+name+"]") {
			t.Errorf("no %s finding reported on brokenmod:\n%s", name, out)
		}
	}
	// The expired-waiver satellite, end to end: brokenmod carries a
	// waiver dated in the past, which must surface as a waiver finding.
	if !strings.Contains(out, "expired") {
		t.Errorf("no expired-waiver finding reported on brokenmod:\n%s", out)
	}
	// Seedflow diagnostics carry the offending flow path.
	if !strings.Contains(out, "constant 42") {
		t.Errorf("seedflow finding missing its flow path:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr.String())
	}
}

// TestUnknownFlag pins the usage exit code apart from the findings one.
func TestUnknownFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-no-such-flag) = %d, want 2", code)
	}
}
