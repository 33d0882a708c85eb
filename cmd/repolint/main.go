// Command repolint is the repository's multichecker: it runs every
// analyzer in internal/analysis over the module and exits non-zero on
// any finding. CI gates on it next to vet and the race detector; run it
// locally with
//
//	go run ./cmd/repolint ./...
//
// The package pattern argument is accepted for familiarity but the tool
// always lints the whole module (the invariants are global properties —
// a clean subset proves nothing). Suppress a finding with a justified
// waiver comment on or above the offending line:
//
//	//lint:<analyzer> <justification>
//	//lint:<analyzer> expires=2026-12-31 <justification>
//
// e.g. //lint:floateq identical bits are never drift. Bare waivers,
// waivers naming unknown analyzers, expired waivers and waivers that
// suppress nothing are themselves findings. Use -list to print the
// registered analyzers and the invariant each one encodes.
//
// Reporting and debt management:
//
//	repolint -json                          # findings as JSON on stdout
//	repolint -sarif out.sarif               # SARIF 2.1.0 for CI code scanning
//	repolint -baseline lint_baseline.json   # suppress known findings
//	repolint -write-baseline lint_baseline.json   # accept current findings
//	repolint -run seedflow,floateq          # subset of the suite
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", "", "module root to lint (default: walk up from the working directory)")
	list := fs.Bool("list", false, "print the registered analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer subset to run (default: full suite)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	baselinePath := fs.String("baseline", "", "suppress findings matching this baseline file")
	writeBaseline := fs.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: repolint [-C dir] [-list] [-run names] [-json] [-sarif file] [-baseline file] [-write-baseline file] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *runNames != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*runNames, ",")...)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *dir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	if abs, err := filepath.Abs(root); err == nil {
		root = abs
	}

	diags, err := analysis.LintModuleWith(root, analyzers, analysis.RunOptions{Now: time.Now()})
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	findings := analysis.Findings(diags, root)

	if *writeBaseline != "" {
		if err := analysis.WriteBaseline(*writeBaseline, findings); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "repolint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return 0
	}

	suppressed := 0
	if *baselinePath != "" {
		base, err := analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		var stale []analysis.Finding
		findings, suppressed, stale = base.Apply(findings)
		// Paid-down debt is a nudge, not a failure: the baseline should
		// shrink in the same PR, but blocking on it would punish fixes.
		for _, f := range stale {
			fmt.Fprintf(stderr, "repolint: baseline entry no longer matches (fixed?): %s:%d %s [%s]\n",
				f.File, f.Line, f.Message, f.Analyzer)
		}
	}

	report := &analysis.Report{
		Schema:     1,
		Module:     root,
		Analyzers:  analyzerNames(analyzers),
		Findings:   findings,
		Suppressed: suppressed,
	}
	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err == nil {
			err = report.WriteSARIF(f, analyzers)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	if *jsonOut {
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)", len(findings))
		if suppressed > 0 {
			fmt.Fprintf(stderr, " (%d suppressed by baseline)", suppressed)
		}
		fmt.Fprintln(stderr)
		return 1
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "repolint: clean (%d suppressed by baseline)\n", suppressed)
	}
	return 0
}

func analyzerNames(analyzers []*analysis.Analyzer) []string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return names
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
