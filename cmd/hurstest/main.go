// Command hurstest estimates the Hurst parameter of a frame-size series —
// either a trace file (one value per line) or a freshly generated model
// path — using three estimators: aggregated variance-time, rescaled range
// (R/S) and the low-frequency periodogram slope (GPH style). Agreement
// across estimators is the practical test for long-range dependence
// (paper §2).
//
// Usage:
//
//	hurstest [-model z:0.975 | -trace sizes.txt] [-frames 262144] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hurst"
	"repro/internal/modelspec"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// minFrames is the shortest series the estimators accept.
const minFrames = 4096

func main() {
	var (
		modelSpec = flag.String("model", "z:0.9", "model spec to generate from")
		tracePath = flag.String("trace", "", "trace file (one frame size per line); overrides -model")
		frames    = flag.Int("frames", 1<<18, "frames to generate when using -model")
		seed      = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	var xs []float64
	var label string
	if *tracePath != "" {
		var err error
		xs, err = traffic.ReadTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		label = *tracePath
	} else {
		m, err := modelspec.Parse(*modelSpec)
		if err != nil {
			fatal(err)
		}
		if *frames < minFrames {
			fatal(fmt.Errorf("-frames %d: need ≥ %d", *frames, minFrames))
		}
		xs = traffic.Generate(m.NewGenerator(*seed), *frames)
		label = m.Name()
	}
	if len(xs) < minFrames {
		fatal(fmt.Errorf("series too short (%d frames; need ≥ %d)", len(xs), minFrames))
	}

	fmt.Printf("series: %s, %d frames\n", label, len(xs))
	fmt.Printf("moments: %s\n\n", stats.Summarize(xs))

	vt, err := hurst.VarianceTime(xs, 10, len(xs)/32)
	report("variance-time", vt, err)
	rs, err := hurst.RS(xs, 32, len(xs)/8)
	report("rescaled range", rs, err)
	gph, err := spectrum.HurstFromPeriodogram(xs, 0.1)
	report("periodogram (GPH)", gph, err)

	fmt.Println("\nH ≈ 0.5 is short-range dependence; H ∈ (0.5, 1) is LRD.")
	fmt.Println("Disagreement between estimators usually means non-stationarity")
	fmt.Println("or periodic structure (check the GOP pattern for MPEG traces).")
}

func report(name string, h float64, err error) {
	if err != nil {
		fmt.Printf("%-20s error: %v\n", name, err)
		return
	}
	fmt.Printf("%-20s H = %.3f\n", name, h)
}

func fatal(err error) {
	telemetry.Log.SetPrefix("hurstest")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
