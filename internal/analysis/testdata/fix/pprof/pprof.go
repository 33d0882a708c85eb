// Package pprof exercises the pprofimport analyzer: linking
// net/http/pprof anywhere mounts profiling handlers on
// http.DefaultServeMux as an import side effect, and linking
// runtime/pprof outside internal/telemetry/prof lets ad-hoc captures
// fight StartCPUProfile over the single CPU profiler.
package pprof

import (
	"net/http"

	_ "net/http/pprof" // want "net/http/pprof imported"
	_ "runtime/pprof"  // want "runtime/pprof imported outside internal/telemetry/prof"
)

func Serve(addr string) error {
	return http.ListenAndServe(addr, nil)
}
