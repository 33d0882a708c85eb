package analysis

import (
	"go/ast"
	"go/constant"
	"strings"
)

// profOwner is the only package tree allowed to touch runtime/pprof's
// goroutine-label API directly. Everyone else attaches labels through
// its typed wrapper (prof.Do / prof.WithLabels take a Labels struct), so
// the set of label keys that can ever reach a profile is closed at
// compile time.
const profOwner = "internal/telemetry/prof"

// profLabelKeys is the fixed label key set, mirroring prof.Keys in
// internal/telemetry/prof. An ad-hoc key would fragment attribution
// (`go tool pprof -tags` would split one coordinate across two keys), so
// a literal key outside this set is a finding even inside the owner
// package.
var profLabelKeys = map[string]bool{
	"figure":      true,
	"sweep_point": true,
	"model":       true,
	"path":        true,
	"lane":        true,
}

// profLabelFuncs is the runtime/pprof goroutine-label surface the owner
// wraps: constructors, appliers and readers alike, so no package can
// even observe labels without going through internal/telemetry/prof.
var profLabelFuncs = map[string]bool{
	"Do":                 true,
	"WithLabels":         true,
	"Labels":             true,
	"Label":              true,
	"ForLabels":          true,
	"SetGoroutineLabels": true,
}

// ProfLabels enforces the two halves of the label-attribution contract:
// runtime/pprof's label API is called only inside internal/telemetry/prof,
// and every constant label key passed to pprof.Labels is one of the five
// fixed keys (figure, sweep_point, model, path, lane).
var ProfLabels = &Analyzer{
	Name: "proflabels",
	Doc: "flags runtime/pprof label-API calls outside internal/telemetry/prof and " +
		"pprof.Labels keys outside the fixed set figure/sweep_point/model/path/lane — " +
		"ad-hoc labels fragment profile attribution",
	Run: runProfLabels,
}

func runProfLabels(pass *Pass) error {
	owner := pathAllowed(pass.RelPath, profOwner)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.TypesInfo, call)
			if pkg != "runtime/pprof" || !profLabelFuncs[name] {
				return true
			}
			if !owner {
				pass.Reportf(call.Pos(),
					"pprof.%s called outside %s; attach labels through the prof wrapper so keys stay in the fixed set",
					name, profOwner)
			}
			if name == "Labels" {
				checkProfLabelKeys(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkProfLabelKeys validates the key positions (even indices) of a
// pprof.Labels(k, v, ...) call. Only compile-time-constant keys are
// checkable; the owner's pprof.Labels(pairs...) spread builds its pairs
// from the named Key* constants, which the typed Labels struct already
// confines to the fixed set.
func checkProfLabelKeys(pass *Pass, call *ast.CallExpr) {
	for i := 0; i < len(call.Args); i += 2 {
		tv, ok := pass.TypesInfo.Types[call.Args[i]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		key := constant.StringVal(tv.Value)
		if !profLabelKeys[key] {
			pass.Reportf(call.Args[i].Pos(),
				"pprof label key %q is not in the fixed key set (%s); extend prof.Keys deliberately instead of inventing keys inline",
				key, strings.Join([]string{"figure", "sweep_point", "model", "path", "lane"}, ", "))
		}
	}
}
