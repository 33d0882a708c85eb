// Package analysistest runs one analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// x/tools/go/analysis/analysistest on top of the stdlib-only framework
// in internal/analysis.
//
// Fixture layout: a self-contained module (its own go.mod) under a
// testdata directory, so neither the real build nor repolint ever sees
// the deliberately-violating code. Expectations are trailing comments:
//
//	v := rand.Intn(10) // want "rand.Intn draws from the global RNG"
//
// Each quoted string must be a substring of a diagnostic reported on
// that line, every diagnostic must be claimed by a want, and a file with
// no want comments asserts the analyzer stays silent there.
package analysistest

import (
	"go/ast"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loaderFor resolves the fixture module through the process-wide shared
// loader cache, so the `go list -export` walk and each package's
// type-check run once per module per test binary, not once per analyzer.
func loaderFor(t *testing.T, dir string) *analysis.Loader {
	t.Helper()
	l, err := analysis.SharedLoader(dir)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	return l
}

var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run applies the analyzer to each listed package of the fixture module
// at moduleDir and diffs diagnostics against the // want comments.
func Run(t *testing.T, moduleDir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := loaderFor(t, moduleDir)
	for _, path := range pkgPaths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		// No expiry clock: fixture waiver expiry is covered by unit tests
		// with pinned dates so fixtures never rot as the calendar advances.
		opts := analysis.RunOptions{Resolver: l}
		diags, err := analysis.RunAnalyzers(pkg, l.Fset, []*analysis.Analyzer{a}, opts)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		check(t, l, pkg, diags)
	}
}

type lineKey struct {
	file string
	line int
}

// check matches diagnostics against expectations line by line.
func check(t *testing.T, l *analysis.Loader, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[lineKey][]string)
	for _, f := range pkg.Files {
		collectWants(t, l, f, wants)
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		idx := -1
		for i, w := range wants[k] {
			if w != "" && strings.Contains(d.Message, w) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pkg.Path, d)
			continue
		}
		wants[k][idx] = "" // consumed
	}
	// Report unmatched wants in a stable order (map iteration would
	// shuffle the failure output between runs — the exact nondeterminism
	// this suite polices).
	keys := make([]lineKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if w != "" {
				t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none", pkg.Path, k.file, k.line, w)
			}
		}
	}
}

func collectWants(t *testing.T, l *analysis.Loader, f *ast.File, wants map[lineKey][]string) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := l.Fset.Position(c.Pos())
			quoted := quotedRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				continue
			}
			k := lineKey{pos.Filename, pos.Line}
			for _, q := range quoted {
				s, err := strconv.Unquote(q)
				if err != nil {
					t.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					continue
				}
				wants[k] = append(wants[k], s)
			}
		}
	}
}
