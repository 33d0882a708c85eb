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
// Findings print one per line in go vet's form,
//
//	file:line:col: message [analyzer]
//
// with file relative to the module root. The exit code is 0 when the
// module is clean, 1 on any finding and 2 on a usage or load error.
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
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: repolint [-C dir] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
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
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
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
