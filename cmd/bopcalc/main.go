// Command bopcalc evaluates the buffer overflow probability asymptotics of
// the paper (§4) for one or more models: the Bahadur-Rao estimate, the
// Large-N estimate, and — for models with a known Hurst parameter — the
// closed-form Weibull approximation of Eq. 6.
//
// Usage:
//
//	bopcalc [-models z:0.975,dar:0.975:1] [-c 538] [-n 30]
//	        [-maxmsec 30] [-points 16] [-weibull-h 0] [-weibull-g 0.9]
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
		specs    = flag.String("models", "z:0.975,dar:0.975:1,l", "comma-separated model specs")
		c        = flag.Float64("c", experiments.BopC, "bandwidth per source, cells/frame")
		n        = flag.Int("n", experiments.BopN, "number of multiplexed sources")
		maxMsec  = flag.Float64("maxmsec", 30, "largest total buffer (max delay) in msec")
		points   = flag.Int("points", 16, "number of buffer points")
		weibullH = flag.Float64("weibull-h", 0, "if > 0, also print the Eq. 6 Weibull estimate for this Hurst parameter")
		weibullG = flag.Float64("weibull-g", 0.9, "g(Ts) used by the Weibull estimate")
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
		fmt.Printf(" %14s %14s", m.Name()+" B-R", "large-N")
	}
	if *weibullH > 0 {
		fmt.Printf(" %14s", "weibull")
	}
	fmt.Println()
	for i := 0; i < *points; i++ {
		msec := float64(i) * *maxMsec / float64(*points-1)
		fmt.Printf("%-12.3f", msec)
		op := core.Operating{C: *c, B: experiments.MsecToPerSourceCells(msec, *c), N: *n}
		for _, m := range ms {
			br, err := core.BahadurRao(m, op, 0)
			if err != nil {
				fatal(err)
			}
			ln, err := core.LargeN(m, op, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %14.6g %14.6g", br, ln)
		}
		if *weibullH > 0 {
			w, err := core.WeibullLRD(core.LRDParams{
				H: *weibullH, G: *weibullG, Mu: 500, Sigma2: 5000,
			}, op)
			if err != nil {
				fatal(err)
			}
			fmt.Printf(" %14.6g", w)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	telemetry.Log.SetPrefix("bopcalc")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
