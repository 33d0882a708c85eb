// Command acfgen prints the analytic autocorrelation function of one or
// more models — and optionally the empirical ACF of a generated sample
// path alongside — reproducing the data behind the paper's Figures 1 and 3.
//
// Usage:
//
//	acfgen [-models z:0.975,dar:0.975:2,l] [-maxlag 100] [-log]
//	       [-empirical 0] [-seed 1]
//
// With -empirical N > 0, a path of N frames is generated per model and its
// sample ACF printed next to the analytic one. With -log, lags are sampled
// geometrically (for tail plots).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/modelspec"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func main() {
	var (
		specs     = flag.String("models", "z:0.975,dar:0.975:1", "comma-separated model specs")
		maxLag    = flag.Int("maxlag", 100, "largest lag")
		logLags   = flag.Bool("log", false, "geometric lag spacing (tail view)")
		empirical = flag.Int("empirical", 0, "if > 0, frames of sample path for empirical ACF")
		seed      = flag.Int64("seed", 1, "seed for empirical paths")
	)
	flag.Parse()

	ms, err := modelspec.ParseList(*specs)
	if err != nil {
		fatal(err)
	}
	if *maxLag < 1 {
		fatal(fmt.Errorf("maxlag must be ≥ 1"))
	}
	if *empirical > 0 && *empirical <= *maxLag {
		fatal(fmt.Errorf("-empirical %d: a sample ACF up to lag %d needs more than %d frames", *empirical, *maxLag, *maxLag))
	}

	var lags []int
	if *logLags {
		prev := 0
		for f := 1.0; f <= float64(*maxLag); f *= 1.3 {
			if k := int(f); k > prev {
				lags = append(lags, k)
				prev = k
			}
		}
	} else {
		for k := 1; k <= *maxLag; k++ {
			lags = append(lags, k)
		}
	}

	empACF := map[string][]float64{}
	if *empirical > 0 {
		for _, m := range ms {
			xs := traffic.Generate(m.NewGenerator(*seed), *empirical)
			empACF[m.Name()] = stats.ACF(xs, *maxLag)
		}
	}

	fmt.Printf("%-8s", "lag")
	for _, m := range ms {
		fmt.Printf(" %14s", m.Name())
		if *empirical > 0 {
			fmt.Printf(" %14s", "empirical")
		}
	}
	fmt.Println()
	for _, k := range lags {
		fmt.Printf("%-8d", k)
		for _, m := range ms {
			fmt.Printf(" %14.6g", m.ACF(k))
			if *empirical > 0 {
				fmt.Printf(" %14.6g", empACF[m.Name()][k])
			}
		}
		fmt.Println()
	}
}

func fatal(err error) {
	telemetry.Log.SetPrefix("acfgen")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
