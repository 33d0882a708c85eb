// Command admit sizes an ATM link: the maximum number of homogeneous VBR
// video connections admissible at a cell-loss target under a delay bound,
// plus the per-source effective bandwidth (paper §5.4 and package cac).
//
// Usage:
//
//	admit [-models z:0.975,dar:0.975:1,l] [-capacity 365566]
//	      [-delays 2,5,10,20,30] [-clr 1e-6] [-estimator br|largen]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cac"
	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/telemetry"
)

func main() {
	var (
		specs    = flag.String("models", "z:0.975,dar:0.975:1,l", "comma-separated model specs")
		capacity = flag.Float64("capacity", 365566, "link capacity in cells/sec (default ≈ OC-3)")
		delays   = flag.String("delays", "2,5,10,20,30", "delay bounds in msec, comma-separated")
		clr      = flag.Float64("clr", 1e-6, "cell loss rate target")
		estName  = flag.String("estimator", "br", "overflow estimator: br (Bahadur-Rao) or largen")
	)
	flag.Parse()

	ms, err := modelspec.ParseList(*specs)
	if err != nil {
		fatal(err)
	}
	est, err := cac.ParseEstimator(*estName)
	if err != nil {
		fatal(err)
	}
	ds, err := parseDelays(*delays)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("link %.0f cells/s, CLR target %g, estimator %s\n\n",
		*capacity, *clr, est)
	fmt.Printf("%-12s", "delay msec")
	for _, m := range ms {
		fmt.Printf(" %16s", m.Name())
	}
	fmt.Println()
	for _, d := range ds {
		link := cac.LinkMs(*capacity, models.Ts, d)
		fmt.Printf("%-12.1f", d)
		for _, m := range ms {
			n, err := cac.Admissible(m, link, *clr, est)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %16d", n)
		}
		fmt.Println()
	}

	// Effective bandwidth at a fixed population for context.
	fmt.Printf("\neffective bandwidth (cells/frame) at N=30, 20 ms delay:\n")
	for _, m := range ms {
		b := *capacity * 0.020 / 30
		c, err := cac.EffectiveBandwidth(m, 30, b, *clr)
		if err != nil {
			fmt.Printf("  %-16s %v\n", m.Name(), err)
			continue
		}
		fmt.Printf("  %-16s %.1f (mean %.0f, headroom %.1f%%)\n",
			m.Name(), c, m.Mean(), (c/m.Mean()-1)*100)
	}
}

// parseDelays parses the -delays list of delay bounds in msec. Each must
// be a finite number ≥ 0: a NaN bound would size a NaN buffer and admit
// zero connections without complaint.
func parseDelays(list string) ([]float64, error) {
	var ds []float64
	for _, f := range strings.Split(list, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || !(d >= 0) || math.IsInf(d, 1) {
			return nil, fmt.Errorf("bad delay %q: want a finite number of msec ≥ 0", f)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func fatal(err error) {
	telemetry.Log.SetPrefix("admit")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
