package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// suiteNames derives the expected analyzer set from the registry itself:
// the suite contract (exact names and order) is pinned once, in
// internal/analysis's TestSuiteRegistersEightAnalyzers, and every other
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

// TestRunSubset exercises -run: only the named analyzers execute.
func TestRunSubset(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", brokenmodDir(t), "-run", "rngsource"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run(-run rngsource) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[rngsource]") {
		t.Errorf("-run rngsource missing its finding:\n%s", out)
	}
	if strings.Contains(out, "[floateq]") {
		t.Errorf("-run rngsource leaked other analyzers' findings:\n%s", out)
	}
	var stdout2, stderr2 strings.Builder
	if code := run([]string{"-run", "nosuch"}, &stdout2, &stderr2); code != 2 {
		t.Fatalf("run(-run nosuch) = %d, want 2", code)
	}
}

// TestJSONReport checks -json emits a well-formed report with
// fingerprinted findings.
func TestJSONReport(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-C", brokenmodDir(t), "-json"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run(-json) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var report analysis.Report
	if err := json.Unmarshal([]byte(stdout.String()), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if report.Schema != 1 || len(report.Findings) == 0 {
		t.Fatalf("report = schema %d with %d findings, want schema 1 with findings", report.Schema, len(report.Findings))
	}
	for _, f := range report.Findings {
		if f.Fingerprint == "" || f.File == "" || f.Analyzer == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path not module-relative: %s", f.File)
		}
	}
}

// TestSARIFOutput checks -sarif writes a structurally sound 2.1.0 log.
func TestSARIFOutput(t *testing.T) {
	sarifPath := filepath.Join(t.TempDir(), "out.sarif")
	var stdout, stderr strings.Builder
	code := run([]string{"-C", brokenmodDir(t), "-sarif", sarifPath}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run(-sarif) = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string           `json:"name"`
					Rules []map[string]any `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Partial map[string]string `json:"partialFingerprints"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("SARIF output invalid: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "repolint" {
		t.Fatalf("SARIF shape wrong: version %q, %d runs", doc.Version, len(doc.Runs))
	}
	if len(doc.Runs[0].Results) == 0 {
		t.Fatal("SARIF log has no results for brokenmod")
	}
	for _, r := range doc.Runs[0].Results {
		if r.Partial["repolint/v1"] == "" {
			t.Errorf("result %q missing fingerprint", r.Message.Text)
		}
	}
	// Rules cover the full suite plus the synthetic waiver rule.
	if got, want := len(doc.Runs[0].Tool.Driver.Rules), len(suiteNames())+1; got != want {
		t.Errorf("SARIF rules = %d, want %d", got, want)
	}
}

// TestBaselineRoundTrip proves the debt workflow: -write-baseline
// captures current findings, and a rerun with -baseline suppresses all
// of them and exits clean.
func TestBaselineRoundTrip(t *testing.T) {
	basePath := filepath.Join(t.TempDir(), "baseline.json")
	var stdout, stderr strings.Builder
	if code := run([]string{"-C", brokenmodDir(t), "-write-baseline", basePath}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-write-baseline) = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	var stdout2, stderr2 strings.Builder
	code := run([]string{"-C", brokenmodDir(t), "-baseline", basePath}, &stdout2, &stderr2)
	if code != 0 {
		t.Fatalf("run(-baseline) = %d, want 0\nstdout: %s\nstderr: %s", code, stdout2.String(), stderr2.String())
	}
	if !strings.Contains(stderr2.String(), "suppressed by baseline") {
		t.Errorf("stderr missing suppression summary: %s", stderr2.String())
	}
}

// TestUnknownFlag pins the usage exit code apart from the findings one.
func TestUnknownFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-no-such-flag) = %d, want 2", code)
	}
}
