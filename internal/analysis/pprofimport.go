package analysis

import (
	"strconv"
)

// restrictedImports maps each profiling import to the package tree
// allowed to link it ("" = none), with the hazard the restriction
// prevents.
//
//   - net/http/pprof: its import side effect registers handlers on
//     http.DefaultServeMux, and nothing in the module serves HTTP.
//     Profiling is the -cpuprofile file, read with go tool pprof.
//   - runtime/pprof: internal/telemetry/prof owns the process-wide CPU
//     profiler through StartCPUProfile (which fails if a second caller
//     starts it, as -cpuprofile does once per run) and the fixed label
//     key set (prof.Labels); ad-hoc profile captures elsewhere would
//     fight -cpuprofile for the single profiler or attach labels outside
//     the key set.
var restrictedImports = []struct {
	path  string
	owner string
	why   string
}{
	{"net/http/pprof", "", "profiling is the -cpuprofile file, read with go tool pprof"},
	{"runtime/pprof", "internal/telemetry/prof", "prof owns StartCPUProfile and the label key set"},
}

// PprofImport keeps profiling linked only through its owner: importing
// net/http/pprof anywhere would silently mount profiling endpoints on
// any default-mux server the process starts, and importing runtime/pprof
// outside internal/telemetry/prof would let ad-hoc captures fight
// StartCPUProfile over the single CPU profiler.
var PprofImport = &Analyzer{
	Name: "pprofimport",
	Doc: "flags any net/http/pprof import and runtime/pprof imports outside " +
		"internal/telemetry/prof — profiling is linked only through its owning package",
	Run: runPprofImport,
}

func runPprofImport(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, r := range restrictedImports {
				if path != r.path {
					continue
				}
				switch {
				case r.owner == "":
					pass.Reportf(imp.Pos(), "%s imported; %s", r.path, r.why)
				case !pathAllowed(pass.RelPath, r.owner):
					pass.Reportf(imp.Pos(), "%s imported outside %s; %s", r.path, r.owner, r.why)
				}
			}
		}
	}
	return nil
}
