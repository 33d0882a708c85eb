// Package analysis is the repository's static-analysis framework: a
// deliberately small, dependency-free mirror of the
// golang.org/x/tools/go/analysis API (Analyzer, Pass, Diagnostic) plus
// the eight analyzers that encode this codebase's determinism and
// observability invariants. The toolchain image carries no module cache,
// so rather than vendoring x/tools (~10k files) the framework is built
// directly on the standard library's go/ast, go/parser and go/types; the
// analyzer surface is kept API-shaped like x/tools so the analyzers port
// verbatim if the dependency ever becomes available.
//
// Invariants enforced (one analyzer each; see DESIGN.md §11):
//
//   - rngsource:   RNG construction and the global rand functions live
//     only in internal/randx, the single seeding point.
//   - walltime:    wall-clock reads (time.Now/Since) only in telemetry,
//     trace, runner and the CLIs — never in model or solver code.
//   - maporder:    no map iteration whose body appends, writes output or
//     draws randomness (iteration-order nondeterminism).
//   - printguard:  no direct stdout/stderr writes outside cmd/, examples/
//     and internal/telemetry — output goes through the leveled logger.
//   - floateq:     no ==/!= on floating-point operands except against a
//     literal zero or under an explicit waiver.
//   - pprofimport: net/http/pprof linked only via internal/telemetry;
//     runtime/pprof linked only via internal/telemetry/prof.
//   - proflabels:  runtime/pprof's goroutine-label API called only in
//     internal/telemetry/prof, and literal label keys drawn only from
//     the fixed set figure/sweep_point/model/path/lane.
//   - seedflow:    every seed handed to randx.NewRand or a generator
//     constructor is data-flow-reachable from internal/seed, a
//     caller-supplied parameter, a Seed config field or a flag — an
//     untracked entropy source silently breaks replay determinism.
//
// Waivers: a line comment of the form
//
//	//lint:<analyzer> <justification>
//
// on (or immediately above) the offending line suppresses that analyzer
// there. A waiver without a justification is itself reported, so every
// exception in the tree carries its reason. A waiver may carry an
// optional expiry as its first token — //lint:<analyzer>
// expires=2026-12-31 <justification> — after which it stops suppressing
// and is itself a finding, so temporary exceptions cannot fossilize.
// A waiver that names an unknown analyzer, or that suppresses nothing
// when its analyzer runs, is also a finding (waiver hygiene).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"time"
)

// An Analyzer describes one invariant check. The shape matches
// x/tools/go/analysis so the Run functions are portable.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint: waivers.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run applies the analyzer to a single type-checked package.
	Run func(*Pass) error
}

// A Resolver gives flow-sensitive analyzers on-demand access to the
// parsed, type-checked syntax of other packages in the same module, so
// an intra-procedural analysis can still follow a seed through a helper
// defined one package over. The Loader implements it; passes run outside
// a module walk carry a nil Resolver and analyzers degrade gracefully.
type Resolver interface {
	Load(path string) (*Package, error)
}

// RunOptions carries cross-cutting configuration for an analyzer run.
type RunOptions struct {
	// Now is the reference time for waiver expiry (//lint:x
	// expires=YYYY-MM-DD ...). The caller injects it — cmd/repolint and
	// the test gate pass the wall clock, fixtures pass a pinned date —
	// so the framework itself stays a pure function of its inputs. A
	// zero Now disables expiry checking.
	Now time.Time
	// Known is the set of analyzer names waivers may legally reference.
	// Nil means the registered suite (Names()).
	Known map[string]bool
	// Resolver provides cross-package syntax for flow analyses.
	Resolver Resolver
}

// A Pass provides one analyzer with one type-checked package and a sink
// for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed with comments, non-test files only
	Pkg       *types.Package
	TypesInfo *types.Info

	// RelPath is the package's import path relative to the module root:
	// "" for the root package, "internal/mux", "cmd/repro", … Policy
	// decisions (allowlists) are made against this, never the absolute
	// import path, so fixture modules exercise the same rules.
	RelPath string

	// Resolver mirrors RunOptions.Resolver; it is nil when a pass runs
	// standalone.
	Resolver Resolver

	report  func(Diagnostic)
	waivers *waiverSet
}

type waiverKey struct {
	file string
	line int
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos unless a //lint:<name> waiver
// covers the position's line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.waivers.waivedAt(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waiverRecord is one registered (justified, unexpired) waiver comment.
type waiverRecord struct {
	name string
	pos  token.Position
	used bool
}

// waiverSet indexes a package's waivers and tracks which ones actually
// suppressed a diagnostic, so RunAnalyzers can flag dead ones.
type waiverSet struct {
	byLine map[waiverKey][]*waiverRecord
	all    []*waiverRecord
}

// waivedAt reports (and records) whether a waiver for analyzer name
// covers the position's line or the line above it.
func (ws *waiverSet) waivedAt(name string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, rec := range ws.byLine[waiverKey{pos.Filename, line}] {
			if rec.name == name {
				rec.used = true
				return true
			}
		}
	}
	return false
}

// waiverPrefix introduces a suppression comment: //lint:<analyzer> <why>.
const waiverPrefix = "//lint:"

// waiverExpiresPrefix introduces the optional expiry token.
const waiverExpiresPrefix = "expires="

// collectWaivers indexes every //lint: comment by (file, line) and
// reports the hygiene violations visible at parse time: bare waivers
// with no justification (an exception the author couldn't explain is not
// an exception), waivers naming an analyzer that doesn't exist (a typo'd
// waiver suppresses nothing and hides the author's intent), malformed
// expiry dates, and expired waivers. An expired waiver is not
// registered, so the finding it used to suppress resurfaces next to the
// expiry report — the suppression has to be re-justified or the code
// fixed.
func collectWaivers(fset *token.FileSet, files []*ast.File, opts RunOptions, report func(Diagnostic)) *waiverSet {
	known := opts.Known
	if known == nil {
		known = Names()
	}
	ws := &waiverSet{byLine: make(map[waiverKey][]*waiverRecord)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, waiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, waiverPrefix)
				name, why, _ := strings.Cut(rest, " ")
				why = strings.TrimSpace(why)
				pos := fset.Position(c.Pos())
				if tok, tail, _ := strings.Cut(why, " "); strings.HasPrefix(tok, waiverExpiresPrefix) {
					date := strings.TrimPrefix(tok, waiverExpiresPrefix)
					why = strings.TrimSpace(tail)
					exp, err := time.Parse("2006-01-02", date)
					if err != nil {
						report(Diagnostic{
							Analyzer: "waiver",
							Pos:      pos,
							Message:  fmt.Sprintf("//lint:%s waiver has malformed expiry %q: want expires=YYYY-MM-DD", name, date),
						})
						continue
					}
					if !opts.Now.IsZero() && exp.Before(opts.Now.Truncate(24*time.Hour)) {
						report(Diagnostic{
							Analyzer: "waiver",
							Pos:      pos,
							Message: fmt.Sprintf("//lint:%s waiver expired %s; re-justify it with a new expiry or fix the finding it suppressed",
								name, date),
						})
						continue
					}
				}
				if name == "" || why == "" {
					report(Diagnostic{
						Analyzer: "waiver",
						Pos:      pos,
						Message:  fmt.Sprintf("%s%s waiver needs a justification: //lint:%s <why>", waiverPrefix, name, name),
					})
					continue
				}
				if !known[name] {
					report(Diagnostic{
						Analyzer: "waiver",
						Pos:      pos,
						Message:  fmt.Sprintf("//lint:%s waiver names an unknown analyzer; registered: %s", name, strings.Join(sortedNames(known), ", ")),
					})
					continue
				}
				rec := &waiverRecord{name: name, pos: pos}
				k := waiverKey{pos.Filename, pos.Line}
				ws.byLine[k] = append(ws.byLine[k], rec)
				ws.all = append(ws.all, rec)
			}
		}
	}
	return ws
}

// reportUnused flags registered waivers for analyzers that ran but never
// suppressed anything — a dead waiver either outlived the code it
// excused or never matched it, and both hide drift.
func (ws *waiverSet) reportUnused(ran map[string]bool, report func(Diagnostic)) {
	for _, rec := range ws.all {
		if !rec.used && ran[rec.name] {
			report(Diagnostic{
				Analyzer: "waiver",
				Pos:      rec.pos,
				Message:  fmt.Sprintf("//lint:%s waiver suppresses nothing; remove it (or move it onto the offending line)", rec.name),
			})
		}
	}
}

// pathAllowed reports whether the module-relative package path rel falls
// under any of the allowed roots. A root matches its own directory and
// everything below it: "internal/telemetry" matches internal/telemetry
// and internal/telemetry/x; "cmd" matches every cmd/* package.
func pathAllowed(rel string, roots ...string) bool {
	for _, root := range roots {
		if rel == root || strings.HasPrefix(rel, root+"/") {
			return true
		}
	}
	return false
}

// pkgFunc resolves a call expression to (package path, function name) if
// its function is a selector on an imported package (e.g. time.Now), or
// ("", "") otherwise.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// isBuiltin reports whether the call invokes the named language builtin
// (append, print, println, …), resolved through the type checker so that
// shadowing declarations do not fool it.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok || ident.Name != name {
		return false
	}
	b, ok := info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == name
}
