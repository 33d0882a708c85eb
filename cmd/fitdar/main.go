// Command fitdar fits DAR(p) Markov models to a target: either an analytic
// model (via -model) or a measured frame-size trace (via -trace, one frame
// size per line). It prints the fitted parameters in the paper's Table 1
// format and compares the fitted ACF with the target's.
//
// Usage:
//
//	fitdar [-model z:0.975 | -trace sizes.txt] [-orders 1,2,3] [-lags 10]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/dar"
	"repro/internal/modelspec"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

func main() {
	var (
		modelSpec = flag.String("model", "z:0.975", "analytic target model spec")
		tracePath = flag.String("trace", "", "path to a trace file (one frame size per line); overrides -model")
		orders    = flag.String("orders", "1,2,3", "DAR orders to fit")
		lags      = flag.Int("lags", 10, "comparison lags to print")
	)
	flag.Parse()

	var (
		targetACF func(k int) float64
		mean      float64
		variance  float64
		name      string
	)
	if *tracePath != "" {
		xs, err := traffic.ReadTrace(*tracePath)
		if err != nil {
			fatal(err)
		}
		if len(xs) < 100 {
			fatal(fmt.Errorf("trace too short (%d frames; need ≥ 100)", len(xs)))
		}
		acf := stats.ACF(xs, *lags+16)
		targetACF = func(k int) float64 { return acf[k] }
		mean, variance = stats.Mean(xs), stats.Variance(xs)
		name = fmt.Sprintf("trace(%s, %d frames)", *tracePath, len(xs))
	} else {
		m, err := modelspec.Parse(*modelSpec)
		if err != nil {
			fatal(err)
		}
		targetACF = m.ACF
		mean, variance = m.Mean(), m.Variance()
		name = m.Name()
	}
	fmt.Printf("target: %s  mean=%.4g variance=%.4g\n\n", name, mean, variance)

	var fitted []*dar.Process
	for _, os_ := range strings.Split(*orders, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(os_))
		if err != nil || p < 1 || p > dar.MaxOrder {
			fatal(fmt.Errorf("bad order %q: want an integer in [1, %d]", os_, dar.MaxOrder))
		}
		target := make([]float64, p)
		for k := 1; k <= p; k++ {
			target[k-1] = targetACF(k)
		}
		proc, err := dar.Fit(target, dar.GaussianMarginal(mean, variance))
		if err != nil {
			fmt.Printf("DAR(%d): fit failed: %v\n", p, err)
			continue
		}
		sel := proc.SelectionProbs()
		parts := make([]string, len(sel))
		for i, s := range sel {
			parts[i] = fmt.Sprintf("a%d=%.4f", i+1, s)
		}
		fmt.Printf("DAR(%d): rho=%.4f %s\n", p, proc.Rho(), strings.Join(parts, " "))
		fitted = append(fitted, proc)
	}

	fmt.Printf("\n%-6s %12s", "lag", "target")
	for _, p := range fitted {
		fmt.Printf(" %12s", fmt.Sprintf("DAR(%d)", p.Order()))
	}
	fmt.Println()
	for k := 1; k <= *lags; k++ {
		fmt.Printf("%-6d %12.6f", k, targetACF(k))
		for _, p := range fitted {
			fmt.Printf(" %12.6f", p.ACF(k))
		}
		fmt.Println()
	}
}

func fatal(err error) {
	telemetry.Log.SetPrefix("fitdar")
	telemetry.Log.Errorf("%v", err)
	os.Exit(1)
}
