// Package httpprof shows that no package may link net/http/pprof, not
// even one under internal/telemetry: nothing in the module serves HTTP.
package httpprof

import (
	_ "net/http/pprof" // want "net/http/pprof imported; profiling is the -cpuprofile file"
)
