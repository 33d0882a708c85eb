package analysis

import (
	"go/ast"
)

// walltimeAllowed lists the package trees that may read the wall clock:
// telemetry (timers, manifests; the internal/telemetry root also covers
// internal/telemetry/prof, whose collector paces CPU windows with a
// ticker and stamps store index lines — pure observation, never inputs
// to a model), trace (span timestamps), runner (progress/ETA) and the
// CLIs. Everything else — models, multiplexers, solvers — must be a pure
// function of its inputs and seed, or replays stop being bit-identical.
var walltimeAllowed = []string{
	"internal/telemetry",
	"internal/trace",
	"internal/runner",
	"cmd",
}

// WallTime flags time.Now and time.Since calls outside the observability
// packages and CLIs.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "flags time.Now/time.Since outside internal/telemetry, internal/trace, " +
		"internal/runner and cmd/* — wall-clock reads in model code break replay determinism",
	Run: runWallTime,
}

func runWallTime(pass *Pass) error {
	if pathAllowed(pass.RelPath, walltimeAllowed...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.TypesInfo, call)
			if pkg != "time" || (name != "Now" && name != "Since") {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a deterministic package; inject a clock or move the timing into telemetry/trace/runner",
				name)
			return true
		})
	}
	return nil
}
