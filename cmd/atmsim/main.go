// Command atmsim runs the paper's finite-buffer ATM multiplexer simulation
// (§5.5) for one or more models and reports the measured cell loss rate
// with replication confidence intervals.
//
// Usage:
//
//	atmsim [-models z:0.975] [-c 538] [-n 30] [-buffers 0,2,5,10,20]
//	       [-frames 100000] [-reps 8] [-seed 1] [-workers 0] [-bop]
//	       [-adaptive] [-trace FILE] [-cpuprofile FILE]
//
// With -adaptive (or an aimd:<spec> model spec) sources are closed-loop:
// an AIMD controller scales each source's frame sizes against the queue
// state the multiplexer feeds back after every frame. Closed-loop CLR runs
// share the coupled single-pass sweep: each replication draws the sources'
// open-loop frames once, and every buffer size scales them by its own
// controllers.
//
// With -bop the infinite-buffer overflow probability P(W > x) is measured
// instead, at the workload levels implied by -buffers. CLR replications
// fan out over -workers cores (default: all); the estimates are
// bit-identical for every worker count. With -trace FILE the run records a
// span tree (model → replication → mux chunk) and writes Chrome
// trace-event JSON loadable in Perfetto. -cpuprofile FILE writes a
// whole-run CPU profile, labelled by model, sweep point, engine path and
// worker lane, for go tool pprof; it is written even when the run fails
// or is interrupted. -v/-quiet adjust log verbosity. Neither sink
// perturbs results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/modelspec"
	"repro/internal/mux"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
	"repro/internal/traffic"
)

var logx = telemetry.Log

// stopCPU stops the -cpuprofile profile; nil when none is running. It is
// kept where fatal can stop the profile before exiting.
var stopCPU func() error

func main() {
	var (
		specs    = flag.String("models", "z:0.975,dar:0.975:1", "comma-separated model specs")
		c        = flag.Float64("c", experiments.BopC, "bandwidth per source, cells/frame")
		n        = flag.Int("n", experiments.BopN, "number of multiplexed sources")
		buffers  = flag.String("buffers", "0,2,5,10,15,20", "total-buffer sizes in msec, comma-separated")
		frames   = flag.Int("frames", 100000, "frames per replication (paper: 500000)")
		reps     = flag.Int("reps", 8, "replications (paper: 60)")
		seed     = flag.Int64("seed", 1, "master seed")
		workers  = flag.Int("workers", 0, "parallel replication workers (0 = all cores, 1 = serial)")
		bop      = flag.Bool("bop", false, "measure infinite-buffer P(W > x) instead of finite-buffer CLR")
		adaptive = flag.Bool("adaptive", false, "wrap every model in the closed-loop AIMD rate controller (default parameters; equivalent to an aimd:<spec> prefix)")
		trc      = flag.String("trace", "", "write Chrome trace-event JSON of the run's span tree to this file (load in Perfetto)")
		cpuProf  = flag.String("cpuprofile", "", "write a whole-run CPU profile, labelled by figure/sweep_point/model/path/lane, to this file (read with go tool pprof); empty = off")
		verbose  = flag.Bool("v", false, "verbose logging (debug level)")
		quiet    = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	flag.Parse()
	logx.SetPrefix("atmsim")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))

	var tracer *trace.Tracer
	if *trc != "" {
		tracer = trace.New()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	eng := runner.NewWithRegistry(*workers, telemetry.Default)
	var err error
	if *cpuProf != "" {
		if stopCPU, err = prof.StartCPUProfile(*cpuProf); err != nil {
			fatal(fmt.Errorf("-cpuprofile: %w", err))
		}
	}

	ms, err := modelspec.ParseList(*specs)
	if err != nil {
		fatal(err)
	}
	if *adaptive {
		for i, m := range ms {
			if traffic.IsClosedLoopModel(m) {
				continue // already adaptive (e.g. an aimd:<spec> model)
			}
			a, err := models.NewAIMD(m, models.AIMDConfig{})
			if err != nil {
				fatal(err)
			}
			ms[i] = a
		}
	}
	msecs, err := parseFloats(*buffers)
	if err != nil {
		fatal(err)
	}
	cells := make([]float64, len(msecs))
	for i, m := range msecs {
		cells[i] = experiments.MsecToPerSourceCells(m, *c)
	}

	for _, m := range ms {
		fmt.Printf("model %s  (N=%d, c=%g cells/frame, %d reps × %d frames)\n",
			m.Name(), *n, *c, *reps, *frames)
		sp := tracer.Root("model "+m.Name(), trace.Int("N", *n), trace.Float("c", *c))
		// Profiling coordinate: all work below attributes to this model.
		mctx := prof.WithLabels(ctx, prof.Labels{Model: m.Name()})
		if *bop {
			thresholds := make([]float64, len(cells))
			for i, b := range cells {
				thresholds[i] = b * float64(*n) // total workload levels
			}
			res, err := mux.RunBOP(mux.BOPConfig{
				Model: m, N: *n, C: *c, Frames: *frames * *reps,
				Warmup: *frames / 10, Seed: *seed, Thresholds: thresholds,
				Span: sp, Ctx: mctx,
			})
			sp.End()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-12s %-14s\n", "buffer msec", "P(W>x)")
			for i := range res.Thresholds {
				fmt.Printf("  %-12.3f %-14.6g\n", msecs[i], res.Prob[i])
			}
			continue
		}
		cfg := mux.Config{
			Model: m, N: *n, C: *c, Frames: *frames,
			Warmup: *frames / 20, Seed: *seed,
		}
		// One coupled sweep per model: open-loop sources share one arrival
		// path across the buffers, closed-loop ones one base path that
		// each buffer's controllers scale.
		byBuffer, err := mux.SweepReplicationsEngine(
			trace.ContextWith(prof.WithLabels(mctx, prof.Labels{SweepPoint: "coupled"}), sp),
			eng, cfg, cells, *reps)
		sp.End()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-12s %-14s %-22s\n", "buffer msec", "CLR", "95% CI")
		for i := range cells {
			ci := mux.CLREstimate(byBuffer[i], 0.95)
			fmt.Printf("  %-12.3f %-14.6g [%.3g, %.3g]\n",
				msecs[i], ci.Point, ci.Low(), ci.High())
		}
	}
	if *trc != "" {
		if err := tracer.WriteChromeFile(*trc); err != nil {
			fatal(err)
		}
		logx.Infof("wrote %d spans to %s (load in Perfetto or chrome://tracing)", tracer.Len(), *trc)
	}
	if err := stopProfile(); err != nil {
		fatal(fmt.Errorf("cpu profile %s: %w", *cpuProf, err))
	}
	if *cpuProf != "" {
		logx.Infof("cpu profile: %s (read with go tool pprof)", *cpuProf)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no buffer sizes given")
	}
	return out, nil
}

// fatal logs err and exits 1, stopping the CPU profile first so a failed
// or interrupted run still leaves a readable profile.
func fatal(err error) {
	logx.Errorf("%v", err)
	if perr := stopProfile(); perr != nil {
		logx.Errorf("cpu profile: %v", perr)
	}
	os.Exit(1)
}

// stopProfile stops the CPU profile and closes its file, reporting a
// write or close error. Later calls, and calls without -cpuprofile, do
// nothing.
func stopProfile() error {
	stop := stopCPU
	stopCPU = nil
	if stop == nil {
		return nil
	}
	return stop()
}
