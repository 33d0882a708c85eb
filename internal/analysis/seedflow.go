package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// seedPkgSuffix identifies the seed-derivation package in both the real
// module ("repro/internal/seed") and fixture modules ("fix/internal/seed").
const seedPkgSuffix = "internal/seed"

// randxPkgSuffix identifies the RNG construction point; randx.NewRand and
// randx.NewStream are both seedflow sinks (their argument must be
// seed-derived) and taint propagators (an RNG built from a derived seed
// yields derived draws, so Composite's child seeds via rng.Int63() stay
// tracked).
const randxPkgSuffix = "internal/randx"

// SeedFlow is the seed-provenance taint analyzer: an intra-procedural
// dataflow analysis over the typed AST proving that every seed handed to
// randx.NewRand, randx.NewStream or a generator constructor (any
// 1-argument NewGenerator method taking an int64) is data-flow-reachable
// from a sanctioned entropy root. Sanctioned roots are:
//
//   - a call into internal/seed (seed.Derive / DeriveString / Children),
//   - a parameter of the enclosing function (the caller owns the seed's
//     provenance; since every function is checked, the obligation chains
//     up to a derivation or a flag),
//   - a struct field whose name ends in "Seed" (Config.Seed,
//     Spec.MasterSeed — the documented master-seed carriers),
//   - a flag-package read (the CLI master seed enters the program there),
//   - values reached FROM such roots through assignments, arithmetic,
//     conversions, indexing, ranging, field access, method calls on
//     seed-derived receivers (rng.Int63()), and same- or cross-package
//     helpers whose bodies the analyzer can see (the source-seeding helpers
//     of package mux).
//
// Anything else — above all an integer constant, the classic "quick
// test" seed — is an untracked entropy source: it silently decouples a
// generator from the splitmix64 derivation tree, so two replications can
// share a stream (correlated results) or a refactor can freeze a path
// that looks randomized. The diagnostic reports the offending flow path
// step by step so the break in the chain is visible without re-deriving
// it by hand. Constant seeds remain legal in examples/ (pedagogical
// determinism) and _test.go files (which the loader never lints).
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "flags randx.NewRand/NewStream/NewGenerator seed arguments that are not data-flow-reachable " +
		"from internal/seed, a caller-supplied parameter, a *Seed field or a flag — " +
		"untracked entropy sources break the replay-determinism contract",
	Run: runSeedFlow,
}

func runSeedFlow(pass *Pass) error {
	// Examples trade derivation discipline for pedagogy: fixed literal
	// seeds keep their output stable and copy-pasteable.
	if pathAllowed(pass.RelPath, "examples") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeedFlowFunc(pass, fd)
		}
	}
	return nil
}

// prov is the provenance verdict for one expression: either derived
// (reachable from a sanctioned seed root) or not, with the flow path
// that led to the verdict, sink-outward.
type prov struct {
	derived bool
	steps   []string
}

func derivedProv(step string) prov  { return prov{derived: true, steps: []string{step}} }
func unrootedProv(step string) prov { return prov{steps: []string{step}} }

// push prepends a hop to the flow path, bounding its length so
// diagnostics stay one readable line.
func (p prov) push(step string) prov {
	const maxSteps = 8
	steps := append([]string{step}, p.steps...)
	if len(steps) > maxSteps {
		steps = append(steps[:maxSteps], "…")
	}
	return prov{derived: p.derived, steps: steps}
}

func (p prov) path() string { return strings.Join(p.steps, " ← ") }

// seedAssign is one reaching definition of a local variable.
type seedAssign struct {
	rhs  ast.Expr // nil for zero-value declarations
	idx  int      // result index for tuple assignments, -1 for direct
	pos  token.Pos
	elem bool // rhs is ranged over; the variable holds an element
	key  bool // range key/counter: an index, never a seed
}

// seedTracer evaluates seed provenance inside one function of one
// package. Cross-function hops build a fresh tracer for the callee with
// the caller's argument provenances bound to its parameters.
type seedTracer struct {
	pkg     *tracePkg
	bind    map[types.Object]prov // parameters (and inter-proc bindings)
	assigns map[types.Object][]seedAssign
	visit   map[types.Object]bool // cycle guard over variables
	calls   map[string]bool       // cycle guard over function hops
	depth   int
}

// tracePkg is the per-package view a tracer reads: the syntax, type info
// and lazily-built package-level initializer index.
type tracePkg struct {
	fset     *token.FileSet
	files    []*ast.File
	info     *types.Info
	path     string
	resolver Resolver
	varInits map[types.Object]ast.Expr
}

func newTracePkg(fset *token.FileSet, files []*ast.File, info *types.Info, path string, r Resolver) *tracePkg {
	return &tracePkg{fset: fset, files: files, info: info, path: path, resolver: r}
}

// varInit returns the package-level initializer expression for obj, so a
// CLI's `var seedFlag = flag.Int64(...)` traces through to the flag read.
func (tp *tracePkg) varInit(obj types.Object) ast.Expr {
	if tp.varInits == nil {
		tp.varInits = make(map[types.Object]ast.Expr)
		for _, f := range tp.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						if o := tp.info.Defs[name]; o != nil {
							tp.varInits[o] = vs.Values[i]
						}
					}
				}
			}
		}
	}
	return tp.varInits[obj]
}

func (tp *tracePkg) posStr(pos token.Pos) string {
	p := tp.fset.Position(pos)
	return fmt.Sprintf("%s:%d", trimPathToBase(p.Filename), p.Line)
}

func trimPathToBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// shortExpr renders an expression for flow-path steps, truncated so one
// pathological composite literal cannot swallow the diagnostic.
func shortExpr(e ast.Expr) string {
	s := types.ExprString(e)
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}

// checkSeedFlowFunc scans one function (closures included) for seed
// sinks and traces each sink argument.
func checkSeedFlowFunc(pass *Pass, fd *ast.FuncDecl) {
	tp := newTracePkg(pass.Fset, pass.Files, pass.TypesInfo, pass.Pkg.Path(), pass.Resolver)
	t := newSeedTracer(tp, fd, nil)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sink, arg := seedSink(pass.TypesInfo, call)
		if sink == "" {
			return true
		}
		if p := t.trace(arg); !p.derived {
			pass.Reportf(arg.Pos(),
				"seed argument to %s is not data-flow-reachable from %s: %s — derive it with seed.Derive*/a Seed parameter or field (constants are allowed only in _test.go and examples/)",
				sink, seedPkgSuffix, p.path())
		}
		return true
	})
}

// randxConstructor reports whether name is one of randx's seeded RNG
// constructors.
func randxConstructor(name string) bool { return name == "NewRand" || name == "NewStream" }

// seedSink classifies a call as a seed consumer: randx.NewRand,
// randx.NewStream, or any single-int64-argument method or function named
// NewGenerator (the traffic.Model constructor contract).
func seedSink(info *types.Info, call *ast.CallExpr) (label string, arg ast.Expr) {
	if len(call.Args) != 1 {
		return "", nil
	}
	if pkg, name := pkgFunc(info, call); randxConstructor(name) && strings.HasSuffix(pkg, randxPkgSuffix) {
		return "randx." + name, call.Args[0]
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewGenerator" {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return "", nil
	}
	if b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Int64 {
		return "", nil
	}
	return shortExpr(sel.X) + ".NewGenerator", call.Args[0]
}

// newSeedTracer builds a tracer for fn with its parameters (receiver
// included) bound. A nil bind means top-level analysis: parameters are
// trusted roots. Inter-procedural hops pass explicit bindings instead.
func newSeedTracer(tp *tracePkg, fn *ast.FuncDecl, bind map[types.Object]prov) *seedTracer {
	t := &seedTracer{
		pkg:     tp,
		bind:    make(map[types.Object]prov),
		assigns: make(map[types.Object][]seedAssign),
		visit:   make(map[types.Object]bool),
		calls:   make(map[string]bool),
	}
	bindParams := func(fl *ast.FieldList, provFor func(name string) (prov, bool)) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := tp.info.Defs[name]
				if obj == nil {
					continue
				}
				if p, ok := provFor(name.Name); ok {
					t.bind[obj] = p
				}
			}
		}
	}
	trusted := func(name string) (prov, bool) {
		return derivedProv(fmt.Sprintf("parameter %s (caller-supplied)", name)), true
	}
	if bind == nil {
		bindParams(fn.Recv, trusted)
		bindParams(fn.Type.Params, trusted)
	} else {
		for obj, p := range bind {
			t.bind[obj] = p
		}
	}
	// Closure parameters are trusted like any other parameter.
	collectClosureParams(tp, fn.Body, t.bind)
	collectSeedAssigns(tp, fn.Body, t.assigns)
	return t
}

func collectClosureParams(tp *tracePkg, body ast.Node, bind map[types.Object]prov) {
	ast.Inspect(body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || fl.Type.Params == nil {
			return true
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if obj := tp.info.Defs[name]; obj != nil {
					bind[obj] = derivedProv(fmt.Sprintf("closure parameter %s", name.Name))
				}
			}
		}
		return true
	})
}

// collectSeedAssigns indexes every reaching definition of every local
// variable in body: plain and tuple assignments, var declarations
// (including zero-value ones) and range bindings.
func collectSeedAssigns(tp *tracePkg, body ast.Node, assigns map[types.Object][]seedAssign) {
	record := func(ident *ast.Ident, a seedAssign) {
		if ident == nil || ident.Name == "_" {
			return
		}
		obj := tp.info.Defs[ident]
		if obj == nil {
			obj = tp.info.Uses[ident]
		}
		if obj == nil {
			return
		}
		assigns[obj] = append(assigns[obj], a)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == len(s.Lhs) {
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, seedAssign{rhs: s.Rhs[i], idx: -1, pos: s.Pos()})
					}
				}
			} else if len(s.Rhs) == 1 {
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, seedAssign{rhs: s.Rhs[0], idx: i, pos: s.Pos()})
					}
				}
			}
		case *ast.ValueSpec:
			switch {
			case len(s.Values) == len(s.Names):
				for i, name := range s.Names {
					record(name, seedAssign{rhs: s.Values[i], idx: -1, pos: s.Pos()})
				}
			case len(s.Values) == 1:
				for i, name := range s.Names {
					record(name, seedAssign{rhs: s.Values[0], idx: i, pos: s.Pos()})
				}
			case len(s.Values) == 0:
				for _, name := range s.Names {
					record(name, seedAssign{rhs: nil, idx: -1, pos: s.Pos()})
				}
			}
		case *ast.RangeStmt:
			if id, ok := s.Key.(*ast.Ident); ok {
				record(id, seedAssign{rhs: s.X, idx: -1, pos: s.Pos(), key: true})
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				record(id, seedAssign{rhs: s.X, idx: -1, pos: s.Pos(), elem: true})
			}
		}
		return true
	})
}

// trace computes the provenance of one expression.
func (t *seedTracer) trace(e ast.Expr) prov {
	// Compile-time constants (literals, named constants, folded
	// arithmetic) are the canonical untracked source.
	if tv, ok := t.pkg.info.Types[e]; ok && tv.Value != nil {
		return unrootedProv(fmt.Sprintf("constant %s", tv.Value))
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return t.trace(x.X)
	case *ast.Ident:
		return t.traceIdent(x)
	case *ast.CallExpr:
		return t.traceCall(x, 0)
	case *ast.SelectorExpr:
		return t.traceSelector(x)
	case *ast.IndexExpr:
		return t.trace(x.X).push(fmt.Sprintf("element %s", shortExpr(e)))
	case *ast.SliceExpr:
		return t.trace(x.X).push(fmt.Sprintf("slice %s", shortExpr(e)))
	case *ast.StarExpr:
		return t.trace(x.X).push(fmt.Sprintf("deref %s", shortExpr(e)))
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return unrootedProv(fmt.Sprintf("channel receive %s (provenance not trackable across channels)", shortExpr(e)))
		}
		return t.trace(x.X)
	case *ast.BinaryExpr:
		l, r := t.trace(x.X), t.trace(x.Y)
		if l.derived {
			return l.push(fmt.Sprintf("expression %s", shortExpr(e)))
		}
		if r.derived {
			return r.push(fmt.Sprintf("expression %s", shortExpr(e)))
		}
		// Report the non-constant side's chain if there is one.
		if len(r.steps) > 0 && strings.HasPrefix(l.steps[0], "constant") {
			return r.push(fmt.Sprintf("expression %s", shortExpr(e)))
		}
		return l.push(fmt.Sprintf("expression %s", shortExpr(e)))
	default:
		return unrootedProv(fmt.Sprintf("%s (not a trackable seed expression)", shortExpr(e)))
	}
}

// traceIdent resolves a name: bound parameter, local variable (join over
// its reaching definitions), or package-level variable (initializer).
func (t *seedTracer) traceIdent(id *ast.Ident) prov {
	obj := t.pkg.info.Uses[id]
	if obj == nil {
		obj = t.pkg.info.Defs[id]
	}
	if obj == nil {
		return unrootedProv(fmt.Sprintf("%s (unresolved)", id.Name))
	}
	return t.traceObj(obj, id.Name)
}

func (t *seedTracer) traceObj(obj types.Object, name string) prov {
	if p, ok := t.bind[obj]; ok {
		return p
	}
	if _, ok := obj.(*types.Var); !ok {
		return unrootedProv(fmt.Sprintf("%s (not a variable)", name))
	}
	if t.visit[obj] {
		return unrootedProv(fmt.Sprintf("%s (cyclic definition)", name))
	}
	t.visit[obj] = true
	defer delete(t.visit, obj)

	as := t.assigns[obj]
	if len(as) == 0 {
		if init := t.pkg.varInit(obj); init != nil {
			return t.trace(init).push(fmt.Sprintf("package variable %s", name))
		}
		return unrootedProv(fmt.Sprintf("%s (no visible definition)", name))
	}
	var fallback *prov
	for i := range as {
		p := t.traceAssign(&as[i], name)
		if p.derived {
			return p
		}
		if fallback == nil {
			fallback = &p
		}
	}
	return *fallback
}

func (t *seedTracer) traceAssign(a *seedAssign, name string) prov {
	hop := fmt.Sprintf("%s (%s)", name, t.pkg.posStr(a.pos))
	switch {
	case a.rhs == nil:
		return unrootedProv("zero value").push(hop)
	case a.key:
		// A range key is an index or counter: 0,1,2,… regardless of what
		// is ranged over. Using it as a seed is the additive-seeding bug
		// the derivation discipline exists to prevent.
		return unrootedProv(fmt.Sprintf("range index over %s", shortExpr(a.rhs))).push(hop)
	case a.elem:
		return t.trace(a.rhs).push(fmt.Sprintf("range element of %s", shortExpr(a.rhs))).push(hop)
	case a.idx >= 0:
		if call, ok := ast.Unparen(a.rhs).(*ast.CallExpr); ok {
			return t.traceCall(call, a.idx).push(hop)
		}
		return unrootedProv(fmt.Sprintf("tuple element %d of %s", a.idx, shortExpr(a.rhs))).push(hop)
	default:
		return t.trace(a.rhs).push(hop)
	}
}

// traceSelector handles qualified identifiers (pkg.Var) and field reads.
func (t *seedTracer) traceSelector(sel *ast.SelectorExpr) prov {
	// Qualified identifier: a variable or constant in another package.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := t.pkg.info.Uses[id].(*types.PkgName); isPkg {
			return unrootedProv(fmt.Sprintf("package-level %s (cross-package state is not a seed root)", shortExpr(sel)))
		}
	}
	name := sel.Sel.Name
	if strings.HasSuffix(name, "Seed") {
		return derivedProv(fmt.Sprintf("seed field %s", shortExpr(sel)))
	}
	base := t.trace(sel.X)
	return base.push(fmt.Sprintf("field %s", shortExpr(sel)))
}

// traceCall classifies a call's idx'th result.
func (t *seedTracer) traceCall(call *ast.CallExpr, idx int) prov {
	info := t.pkg.info
	// Type conversion: provenance passes through unchanged.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return t.trace(call.Args[0])
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return unrootedProv(fmt.Sprintf("builtin %s(...)", id.Name))
		}
	}
	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil {
		pkgPath := fn.Pkg().Path()
		switch {
		case strings.HasSuffix(pkgPath, seedPkgSuffix):
			return derivedProv(fmt.Sprintf("seed.%s(...)", fn.Name()))
		case pkgPath == "flag":
			return derivedProv(fmt.Sprintf("flag.%s (user-supplied master seed)", fn.Name()))
		case strings.HasSuffix(pkgPath, randxPkgSuffix) && randxConstructor(fn.Name()) && len(call.Args) == 1:
			return t.trace(call.Args[0]).push(fmt.Sprintf("randx.%s(...)", fn.Name()))
		}
	}
	// A method whose receiver is seed-derived yields seed-derived values:
	// rng.Int63() on a randx-built generator, cfg.ChildSeed() on a
	// caller-supplied config. This is the same trust boundary as
	// parameters — provenance, not cryptographic lineage.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		if recv := t.trace(sel.X); recv.derived {
			return recv.push(fmt.Sprintf("%s(...)", shortExpr(call.Fun)))
		}
		if recvPkg := fnRecvPkg(fn); recvPkg == "flag" {
			return derivedProv(fmt.Sprintf("%s (user-supplied master seed)", shortExpr(call.Fun)))
		}
	}
	// Last resort: follow the callee's body if it lives in this module.
	if p, ok := t.traceThroughBody(fn, call, idx); ok {
		return p
	}
	label := shortExpr(call.Fun)
	if fn != nil && fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + fn.Name()
	}
	return unrootedProv(fmt.Sprintf("result of %s (no seed derivation found)", label))
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func fnRecvPkg(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	tn := namedTypeName(sig.Recv().Type())
	if tn == nil || tn.Pkg() == nil {
		return ""
	}
	return tn.Pkg().Path()
}

func namedTypeName(t types.Type) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj()
		default:
			return nil
		}
	}
}

// traceThroughBody resolves a helper's declaration — in this package or,
// through the loader, any other package of the module — and evaluates
// its return expressions with the caller's argument provenances bound to
// its parameters. Depth- and cycle-guarded; returns ok=false when the
// body is out of reach (stdlib, interface method, func-valued variable).
func (t *seedTracer) traceThroughBody(fn *types.Func, call *ast.CallExpr, idx int) (prov, bool) {
	const maxDepth = 6
	if fn == nil || fn.Pkg() == nil || t.depth >= maxDepth {
		return prov{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return prov{}, false
	}
	recvName := ""
	if sig.Recv() != nil {
		tn := namedTypeName(sig.Recv().Type())
		if tn == nil {
			return prov{}, false
		}
		recvName = tn.Name()
	}
	key := fn.Pkg().Path() + "." + recvName + "." + fn.Name()
	if t.calls[key] {
		return unrootedProv(fmt.Sprintf("recursive call to %s", fn.Name())), true
	}

	calleePkg := t.pkg
	if fn.Pkg().Path() != t.pkg.path {
		if t.pkg.resolver == nil {
			return prov{}, false
		}
		loaded, err := t.pkg.resolver.Load(fn.Pkg().Path())
		if err != nil || loaded == nil {
			return prov{}, false
		}
		calleePkg = newTracePkg(t.pkg.fset, loaded.Files, loaded.Info, loaded.Path, t.pkg.resolver)
	}
	fd := findFuncDecl(calleePkg, fn.Name(), recvName)
	if fd == nil || fd.Body == nil {
		return prov{}, false
	}

	// Bind callee parameters to the provenance of the matching caller
	// arguments, evaluated in the CALLER's context.
	bind := make(map[types.Object]prov)
	if fd.Recv != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			bindFieldList(calleePkg, fd.Recv, func(int) prov { return t.trace(sel.X) }, bind)
		}
	}
	argProv := func(i int) prov {
		if i < len(call.Args) {
			return t.trace(call.Args[i])
		}
		return unrootedProv("missing argument")
	}
	bindFieldList(calleePkg, fd.Type.Params, argProv, bind)

	callee := newSeedTracer(calleePkg, fd, bind)
	callee.depth = t.depth + 1
	callee.calls = t.calls
	t.calls[key] = true
	defer delete(t.calls, key)

	p := callee.traceReturns(fd, idx)
	return p.push(fmt.Sprintf("via %s (%s)", fn.Name(), calleePkg.posStr(fd.Pos()))), true
}

// findFuncDecl locates a function declaration by name and receiver type
// name in a package's files. Matching is syntactic on purpose: a
// *types.Func reached through export data is a different object than the
// one the source-checked package defines, so object identity cannot be
// used across the boundary.
func findFuncDecl(tp *tracePkg, name, recvName string) *ast.FuncDecl {
	for _, f := range tp.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name {
				continue
			}
			if recvDeclName(fd) == recvName {
				return fd
			}
		}
	}
	return nil
}

// recvDeclName extracts the receiver's base type name ("" for plain
// functions).
func recvDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// bindFieldList assigns provenance to each named field of a parameter
// list, positionally across the flattened names.
func bindFieldList(tp *tracePkg, fl *ast.FieldList, provAt func(int) prov, bind map[types.Object]prov) {
	if fl == nil {
		return
	}
	i := 0
	for _, field := range fl.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := tp.info.Defs[name]; obj != nil {
				bind[obj] = provAt(i)
			}
			i++
		}
	}
}

// traceReturns joins the provenance of the idx'th result over every
// return statement of fd (excluding nested function literals); derived
// wins, matching the assignment join.
func (t *seedTracer) traceReturns(fd *ast.FuncDecl, idx int) prov {
	var fallback *prov
	returns := ownReturns(fd.Body)
	for _, rs := range returns {
		var p prov
		switch {
		case idx < len(rs.Results):
			p = t.trace(rs.Results[idx])
		case len(rs.Results) == 0 && fd.Type.Results != nil:
			// Bare return with named results: trace the named result var.
			p = t.traceNamedResult(fd, idx)
		default:
			continue
		}
		if p.derived {
			return p
		}
		if fallback == nil {
			fallback = &p
		}
	}
	if fallback == nil {
		return unrootedProv("no traceable return value")
	}
	return *fallback
}

func (t *seedTracer) traceNamedResult(fd *ast.FuncDecl, idx int) prov {
	i := 0
	for _, field := range fd.Type.Results.List {
		for _, name := range field.Names {
			if i == idx {
				if obj := t.pkg.info.Defs[name]; obj != nil {
					return t.traceObj(obj, name.Name)
				}
				return unrootedProv("unresolved named result")
			}
			i++
		}
	}
	return unrootedProv("unresolved named result")
}

// ownReturns collects the return statements belonging to body's function
// itself, skipping nested function literals (their returns return from
// the closure, not from the function under analysis).
func ownReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, s)
		}
		return true
	})
	return out
}
