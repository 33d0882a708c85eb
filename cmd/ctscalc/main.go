// Command ctscalc computes the Critical Time Scale m*_b of one or more
// video traffic models across a range of buffer sizes, reproducing the
// analysis behind the paper's Figure 4.
//
// Usage:
//
//	ctscalc [-models z:0.975,dar:0.975:1,l] [-c 526] [-n 100]
//	        [-maxmsec 30] [-points 16]
//
// Output: one row per buffer size with m*_b and the rate function I(c,b)
// for each model.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/modelspec"
	"repro/internal/telemetry"
)

func main() {
	var (
		specs   = flag.String("models", "z:0.7,z:0.9,z:0.975,z:0.99", "comma-separated model specs (see internal/modelspec)")
		c       = flag.Float64("c", experiments.Fig4C, "bandwidth per source, cells/frame")
		n       = flag.Int("n", experiments.Fig4N, "number of multiplexed sources")
		maxMsec = flag.Float64("maxmsec", 30, "largest total buffer (max delay) in msec")
		points  = flag.Int("points", 16, "number of buffer points")
	)
	flag.Parse()

	ms, err := modelspec.ParseList(*specs)
	if err != nil {
		fatal(err)
	}
	if *points < 2 || !(*maxMsec > 0 && *maxMsec < math.Inf(1)) {
		fatal(fmt.Errorf("need points ≥ 2 and a finite maxmsec > 0"))
	}

	fmt.Printf("%-12s", "buffer msec")
	for _, m := range ms {
		fmt.Printf(" %14s %12s", m.Name()+" m*", "I(c,b)")
	}
	fmt.Println()
	for i := 0; i < *points; i++ {
		msec := float64(i) * *maxMsec / float64(*points-1)
		fmt.Printf("%-12.3f", msec)
		for _, m := range ms {
			op := core.Operating{C: *c, B: experiments.MsecToPerSourceCells(msec, *c), N: *n}
			res, err := core.CTS(m, op, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %14d %12.5g", res.M, res.Rate)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	telemetry.Log.SetPrefix("ctscalc")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
