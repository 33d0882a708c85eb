package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestPprofImport(t *testing.T) {
	analysistest.Run(t, fixtureModule(t), analysis.PprofImport,
		"fix/pprof",                       // stray imports flagged
		"fix/internal/telemetry/httpprof", // net/http/pprof flagged even under telemetry
		"fix/internal/telemetry/prof",     // the profile owner may link runtime/pprof
	)
}
