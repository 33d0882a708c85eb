// Command repro regenerates every table and figure of the paper's
// evaluation. By default it prints all experiments to stdout at a reduced
// simulation scale; use -exp to select specific experiments, -out to write
// text and CSV files, and -reps/-frames to approach the paper's 60 × 500k
// simulation effort.
//
// Usage:
//
//	repro [-exp all|table1,fig1,...,fig10] [-reps N] [-frames N]
//	      [-seed N] [-out DIR] [-csv] [-workers N] [-checkpoint FILE]
//	      [-telemetry ADDR] [-flight FILE] [-flight-interval DUR] [-slo RULES]
//	      [-cpuprofile FILE]
//
// Simulation replications fan out over -workers cores (default: all);
// results are bit-identical for every worker count. With -checkpoint,
// completed replications are persisted so an interrupted run (Ctrl-C)
// resumes where it stopped instead of restarting.
//
// Observability: with -out DIR the run writes DIR/manifest.jsonl — a
// structured JSONL record of the run (seed, git revision, config, per-stage
// wall times, per-series results with CLR confidence bounds and convergence
// verdicts, wall/CPU totals, the final metrics snapshot and the span timing
// table) that telemetry.ReadManifest decodes. With -telemetry ADDR (e.g.
// ":6060") an HTTP endpoint serves live metrics (/metrics Prometheus text,
// /vars JSON) and /debug/pprof profiles while the run progresses. With
// -trace FILE the run records a span tree (figure → sweep → replication →
// mux chunk) and writes it as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing. With -flight FILE the flight recorder
// snapshots all metrics every -flight-interval (default 1s) into a
// delta-encoded JSONL time-series log — replay it with obsreport — and
// serves the recent history at /vars/history on the -telemetry endpoint.
// With -slo RULES (see internal/telemetry/slo for the grammar) each
// snapshot is evaluated online and any breached rule fails the run with
// exit status 3. With -cpuprofile FILE the whole run is CPU-profiled,
// each sample labelled with the figure/model/sweep-point/path/lane it
// was spent on; read it with go tool pprof (-top, -tags,
// -tagfocus=figure=fig8, -diff_base). The profile is written even when
// the run fails or is interrupted. -v/-quiet raise/lower log verbosity.
// None of these sinks perturbs results: fixed-seed outputs are
// bit-identical with every combination on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/telemetry/obs"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
)

var logx = telemetry.Log

// sess is the run's observability session, kept where fatal can stop its
// CPU profile before exiting.
var sess *obs.Session

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids (table1, fig1..fig10, ext...) or 'all' (figs + table1 + extmpeg,extsub,extweibull,extmarg,extflr,extloop)")
		reps    = flag.Int("reps", experiments.DefaultSim.Reps, "simulation replications (paper: 60)")
		frames  = flag.Int("frames", experiments.DefaultSim.Frames, "frames per replication (paper: 500000)")
		seed    = flag.Int64("seed", experiments.DefaultSim.Seed, "master random seed")
		outDir  = flag.String("out", "", "directory for .txt/.csv outputs and the run manifest (default: stdout only)")
		csv     = flag.Bool("csv", false, "also print CSV to stdout")
		workers = flag.Int("workers", 0, "parallel simulation workers (0 = all cores, 1 = serial)")
		ckpt    = flag.String("checkpoint", "", "checkpoint file: persist finished replications and resume interrupted runs")
		telem   = flag.String("telemetry", "", "serve live metrics/pprof on this address (e.g. :6060); empty = off")
		trc     = flag.String("trace", "", "write Chrome trace-event JSON of the run's span tree to this file (load in Perfetto)")
		convRel = flag.Float64("convrel", 0, "target relative 95% CI half-width for convergence verdicts (0 = default 0.5)")
		verbose = flag.Bool("v", false, "verbose logging (debug level)")
		quiet   = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	obsFlags := obs.AddFlags()
	flag.Parse()
	logx.SetPrefix("repro")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))
	start := time.Now()

	// The tracer is nil unless -trace is given; every span descending from
	// it is then a no-op, so the instrumented paths cost one branch.
	var tracer *trace.Tracer
	if *trc != "" {
		tracer = trace.New()
	}

	// Interrupts cancel in-flight replications cleanly so the checkpoint
	// stays consistent and the run can be resumed.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// The engine records into the process-wide default registry so runner
	// progress, mux chunk metrics and experiment stage timers share the
	// exposition endpoint and manifest snapshot.
	eng := runner.NewWithRegistry(*workers, telemetry.Default)
	if *ckpt != "" {
		c, err := runner.OpenCheckpoint(*ckpt)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		if n := c.Len(); n > 0 {
			logx.Infof("resuming with %d checkpointed replications from %s", n, *ckpt)
		}
		eng.SetCheckpoint(c)
	}
	// stopLog flushes a final stats line, so short runs still report
	// totals; routing through the leveled logger makes -quiet silence it.
	stopLog := eng.LogProgress(5*time.Second, logx.Writer(telemetry.LevelInfo))
	defer stopLog()

	// The flight recorder and online SLO evaluation only read the registry,
	// so results stay bit-identical with them on or off (CI diffs the smoke
	// manifests at rtol 0 to prove it).
	var err error
	sess, err = obsFlags.Start(telemetry.Default, "repro")
	if err != nil {
		fatal(err)
	}

	if *telem != "" {
		srv, addr, err := telemetry.Serve(*telem, telemetry.Default, sess.Routes()...)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		logx.Infof("telemetry on http://%s (/metrics, /vars, /debug/pprof/)", addr)
	}

	sim := experiments.SimConfig{
		Reps: *reps, Frames: *frames, Seed: *seed,
		Engine: eng, Ctx: ctx,
		ConvMaxRelCI: *convRel,
	}
	if err := sim.Validate(); err != nil {
		fatal(err)
	}

	var manifest *telemetry.ManifestWriter
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		var err error
		manifest, err = telemetry.CreateManifest(filepath.Join(*outDir, "manifest.jsonl"), telemetry.ManifestHeader{
			Tool:  "repro",
			Args:  os.Args[1:],
			Start: start.Format(time.RFC3339Nano),
			Seed:  *seed,
			Config: map[string]string{
				"exp":     *exps,
				"reps":    fmt.Sprint(*reps),
				"frames":  fmt.Sprint(*frames),
				"workers": fmt.Sprint(eng.Workers()),
			},
		})
		if err != nil {
			fatal(err)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e != "" {
			want[e] = true
		}
	}
	all := want["all"]
	selected := func(id string) bool { return all || want[id] }

	// Every pass runs under its figure's profiling label, so CPU samples
	// from any goroutine it starts attribute back to the figure being
	// regenerated.
	if selected("table1") {
		t0 := time.Now()
		sp := tracer.Root("table1")
		var tab *models.Table1
		prof.Do(ctx, prof.Labels{Figure: "table1"}, func(context.Context) { tab, err = experiments.Table1() })
		sp.End()
		if err != nil {
			fatal(err)
		}
		emitText("table1", tab.String(), *outDir)
		if manifest != nil {
			manifest.Stage(telemetry.StageRecord{ID: "table1", WallSeconds: time.Since(t0).Seconds()})
		}
	}

	// Simulation-backed drivers receive the labelled context and the
	// figure's root span through SimConfig, so sweeps, replications and
	// mux chunks nest below it; analytic drivers just run inside the
	// span's extent.
	type driver struct {
		id  string
		run func(experiments.SimConfig) ([]*experiments.Result, error)
	}
	analytic := func(fn func() ([]*experiments.Result, error)) func(experiments.SimConfig) ([]*experiments.Result, error) {
		return func(experiments.SimConfig) ([]*experiments.Result, error) { return fn() }
	}
	single := func(fn func(experiments.SimConfig) (*experiments.Result, error)) func(experiments.SimConfig) ([]*experiments.Result, error) {
		return func(s experiments.SimConfig) ([]*experiments.Result, error) {
			r, err := fn(s)
			return []*experiments.Result{r}, err
		}
	}
	drivers := []driver{
		{"fig1", analytic(experiments.Fig1)},
		{"fig2", single(func(experiments.SimConfig) (*experiments.Result, error) { return experiments.Fig2(500, *seed) })},
		{"fig3", analytic(experiments.Fig3)},
		{"fig4", analytic(experiments.Fig4)},
		{"fig5", analytic(experiments.Fig5)},
		{"fig6", analytic(experiments.Fig6)},
		{"fig7", analytic(experiments.Fig7)},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
		{"fig10", single(experiments.Fig10)},
		// Extensions beyond the published evaluation (paper §6 directions);
		// included in -exp all.
		{"extmpeg", analytic(experiments.ExtMPEG)},
		{"extsub", analytic(experiments.ExtSubstrates)},
		{"extweibull", analytic(experiments.ExtWeibull)},
		{"extmarg", single(experiments.ExtMarginals)},
		{"extflr", single(experiments.ExtFLR)},
		{"extloop", single(experiments.ExtClosedLoop)},
	}
	for _, d := range drivers {
		if !selected(d.id) {
			continue
		}
		if err := ctx.Err(); err != nil {
			fatal(fmt.Errorf("interrupted (rerun with -checkpoint to resume): %w", context.Cause(ctx)))
		}
		logx.Infof("running %s...", d.id)
		t0 := time.Now()
		sp := tracer.Root(d.id)
		var results []*experiments.Result
		prof.Do(ctx, prof.Labels{Figure: d.id}, func(ctx context.Context) {
			s := sim
			s.Ctx, s.Span = ctx, sp
			results, err = d.run(s)
		})
		sp.End()
		if manifest != nil {
			rec := telemetry.StageRecord{ID: d.id, WallSeconds: time.Since(t0).Seconds()}
			if err != nil {
				rec.Err = err.Error()
			}
			manifest.Stage(rec)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", d.id, err))
		}
		for _, r := range results {
			emitText(r.ID, r.Render(), *outDir)
			if *csv {
				fmt.Println(r.CSV())
			}
			if *outDir != "" {
				path := filepath.Join(*outDir, r.ID+".csv")
				if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
					fatal(err)
				}
			}
			if manifest != nil {
				manifest.Result(resultRecord(d.id, r))
			}
		}
	}
	stopLog()
	if manifest != nil {
		err := manifest.Close(telemetry.RunSummary{
			WallSeconds: time.Since(start).Seconds(),
			CPUSeconds:  telemetry.CPUSeconds(),
			End:         time.Now().Format(time.RFC3339Nano),
			Metrics:     telemetry.Default.Snapshot(),
			Spans:       spanSummaries(tracer),
		})
		if err != nil {
			fatal(err)
		}
	}
	if *trc != "" {
		if err := tracer.WriteChromeFile(*trc); err != nil {
			fatal(err)
		}
		logx.Infof("wrote %d spans to %s (load in Perfetto or chrome://tracing)", tracer.Len(), *trc)
	}
	// The SLO verdict is the exit gate: a breached rule (or a torn flight
	// log) fails the run even though every figure rendered.
	if !sess.Finish() {
		os.Exit(3)
	}
}

// resultRecord converts an experiment result into its manifest form,
// preserving the replication confidence bounds and convergence verdicts
// that the rendered tables drop.
func resultRecord(stage string, r *experiments.Result) telemetry.ResultRecord {
	rec := telemetry.ResultRecord{Stage: stage, ID: r.ID, Title: r.Title}
	for _, s := range r.Series {
		sr := telemetry.SeriesRecord{
			Label: s.Label, X: s.X, Y: s.Y, Lo: s.Lo, Hi: s.Hi,
		}
		for _, v := range s.Verdicts {
			sr.Conv = append(sr.Conv, convRecord(v))
		}
		rec.Series = append(rec.Series, sr)
	}
	return rec
}

// convRecord converts a diag verdict into its manifest form. An undefined
// relative CI (±Inf: fewer than two finite observations, or a zero mean
// with spread) becomes −1, since JSON cannot carry non-finite numbers.
func convRecord(v diag.Verdict) telemetry.ConvRecord {
	rel := v.RelCI
	if math.IsInf(rel, 0) || math.IsNaN(rel) {
		rel = -1
	}
	return telemetry.ConvRecord{
		N: v.N, NonFinite: v.NonFinite, RelCI: rel, ESS: v.ESS, Converged: v.Converged,
	}
}

// spanSummaries converts the tracer's aggregated timing table into its
// manifest form (nil tracer → nil, omitted from the summary line).
func spanSummaries(t *trace.Tracer) []telemetry.SpanSummary {
	var out []telemetry.SpanSummary
	for _, s := range t.Summarize() {
		out = append(out, telemetry.SpanSummary{
			Name: s.Name, Count: s.Count, TotalSeconds: s.TotalSeconds,
			MinSeconds: s.MinSeconds, MaxSeconds: s.MaxSeconds,
		})
	}
	return out
}

func emitText(id, text, outDir string) {
	fmt.Println(text)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(outDir, id+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fatal(err)
		}
	}
}

// fatal logs err and exits 1, stopping the CPU profile first so a failed
// or interrupted run still leaves a readable profile.
func fatal(err error) {
	logx.Errorf("%v", err)
	if perr := sess.StopProfile(); perr != nil {
		logx.Errorf("cpu profile: %v", perr)
	}
	os.Exit(1)
}
