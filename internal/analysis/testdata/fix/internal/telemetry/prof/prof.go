// Package prof stands in for the real internal/telemetry/prof: the one
// package allowed to import runtime/pprof, so pprofimport stays silent
// on it.
package prof

import (
	"context"
	"runtime/pprof"
)

const KeyFigure = "figure"

// Do mirrors the real wrapper over pprof's label API.
func Do(ctx context.Context, figure string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(KeyFigure, figure), f)
}
