package analysis

import (
	"go/ast"
)

// randxPath is the only package allowed to construct RNGs or call the
// global rand functions; every stochastic path derives a child seed with
// internal/seed and hands it to randx.NewRand or randx.NewStream.
const randxPath = "internal/randx"

// RNGSource enforces the single-construction-point rule for randomness.
// Calling any function of math/rand (or math/rand/v2) — rand.New,
// rand.NewSource, and especially the global-state draws like rand.Intn —
// outside internal/randx bypasses the splitmix64 seeding discipline and
// makes replications depend on process-global state. Methods on a
// *rand.Rand value are fine: the value itself was necessarily built by
// randx.NewRand or a randx.Stream's Rand view from a derived seed.
var RNGSource = &Analyzer{
	Name: "rngsource",
	Doc: "flags math/rand package-level calls (construction and global draws) " +
		"outside internal/randx, the single RNG construction point",
	Run: runRNGSource,
}

func runRNGSource(pass *Pass) error {
	if pathAllowed(pass.RelPath, randxPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.TypesInfo, call)
			if pkg != "math/rand" && pkg != "math/rand/v2" {
				return true
			}
			switch name {
			case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
				pass.Reportf(call.Pos(),
					"rand.%s constructs an RNG outside %s; derive a seed with internal/seed and call randx.NewRand or randx.NewStream",
					name, randxPath)
			default:
				pass.Reportf(call.Pos(),
					"rand.%s draws from the global RNG; replications must draw only from an RNG built by randx.NewRand or randx.NewStream",
					name)
			}
			return true
		})
	}
	return nil
}
