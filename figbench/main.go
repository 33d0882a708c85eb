// Command figbench is the repository's benchmark: it regenerates the
// paper's figures through the repro CLI, one child process at a time,
// checks every output, and reports each metric BENCHMARK.json names by
// median and quartiles — end-to-end metrics from untraced children,
// per-layer metrics from a traced in-process replay of the same figures.
//
// Run it through run.sh, which builds cmd/repro and this command from the
// checkout first:
//
//	bash figbench/run.sh --workload analytic --seed 1996 --seconds 30 --trace 0
//	bash figbench/run.sh --workload all --out figbench/results/set.json
//	bash figbench/run.sh -compare A.json B.json
//
// The last line of standard output is the run's result as one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Everything else
// goes to standard error. See README.md for the workloads, the metrics
// and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/runner"
	"repro/internal/seed"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var logx = telemetry.Log

// minChildren is the fewest untraced children a run measures, however
// short --seconds is, so quartiles exist.
const minChildren = 3

// seedsPerRun is how many seeds, derived from --seed, a run's children
// cycle through. A simulation's cost depends on its draw: FBNDP durations
// are heavy-tailed, and one seed can cost 1.5× another at these scales.
// Cycling lets the fastest child reflect the workload rather than one
// draw, while each seed still repeats so repeats can be checked for
// bit-identical results.
const seedsPerRun = 4

func main() {
	var (
		root     = flag.String("root", ".", "repository root: BENCHMARK.json, results/, and build and run outputs under .bench_build/")
		repro    = flag.String("repro", "", "repro binary built from the root (run.sh passes it)")
		name     = flag.String("workload", "all", "workload from BENCHMARK.json, or all")
		seedArg  = flag.Int64("seed", 1996, "run seed: the children's repro -seed values are derived from it")
		seconds  = flag.Float64("seconds", 0, "measured time per workload (0 = BENCHMARK.json run_seconds)")
		traceArg = flag.Int("trace", 0, "1 = traced pass: report the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "also write the run's record (host, samples, summaries) to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out records: figbench -compare A.json B.json")
	)
	flag.Parse()
	logx.SetPrefix("figbench")
	sp, err := loadSpec(*root)
	if err != nil {
		fatal(err)
	}
	if err := validate(sp); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files"))
		}
		regressed, err := compareFiles(sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *repro == "" {
		fatal(fmt.Errorf("-repro is required; run through figbench/run.sh"))
	}
	if *traceArg != 0 && *traceArg != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *traceArg))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	golden, err := telemetry.ReadManifest(filepath.Join(*root, "results", "golden", "manifest.jsonl"))
	if err != nil {
		fatal(err)
	}
	s := &session{
		spec: sp, root: *root, repro: *repro, seed: *seedArg, seconds: *seconds,
		traced: *traceArg == 1, golden: golden, outDir: filepath.Join(*root, ".bench_build"),
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	rec := record{Host: currentHost(), Seed: *seedArg, Seconds: *seconds, Trace: s.traced}
	ok := true
	for _, w := range todo {
		res, err := s.run(w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rec.Workloads = append(rec.Workloads, res)
		ok = ok && res.Correct
		//lint:printguard figbench reports its result object on the last line of stdout
		if err := writeResultLine(os.Stdout, sp, res); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fatal(err)
		}
		logx.Infof("wrote %s", *out)
	}
	if !ok {
		os.Exit(2)
	}
}

func fatal(err error) {
	logx.Errorf("%v", err)
	os.Exit(1)
}

// validate checks that this command implements exactly the workloads and
// metrics BENCHMARK.json names.
func validate(s *spec) error {
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, figbench implements %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		return fmt.Errorf("BENCHMARK.json names %d+%d metrics, figbench implements %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range s.EndToEnd {
		if _, ok := endToEnd[m.Name]; !ok {
			return fmt.Errorf("end-to-end metric %q is not implemented", m.Name)
		}
	}
	for _, m := range s.PerLayer {
		if _, ok := perLayer[m.Name]; !ok {
			return fmt.Errorf("per-layer metric %q is not implemented", m.Name)
		}
	}
	return nil
}

// session is one invocation's settings.
type session struct {
	spec        *spec
	root, repro string
	seed        int64
	seconds     float64
	traced      bool
	golden      *telemetry.Manifest
	outDir      string
}

// workloadResult is one workload's run: its checks and metric summaries.
type workloadResult struct {
	Name      string             `json:"name"`
	Seeds     []int64            `json:"seeds"` // repro -seed of children 0, 1, …, cyclically
	Args      []string           `json:"args"`  // the first child's repro arguments
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// run measures w for s.seconds: untraced children for the end-to-end
// metrics, or traced iterations for the per-layer ones.
func (s *session) run(w workload) (workloadResult, error) {
	res := workloadResult{Name: w.name, Metrics: map[string]summary{}}
	for i := range seedsPerRun {
		res.Seeds = append(res.Seeds, seed.Derive(s.seed, uint64(i)))
	}
	res.Args = w.args(res.Seeds[0])
	dir := filepath.Join(s.outDir, "runs", w.name)
	defer os.RemoveAll(dir)
	var c checker
	run, metrics := s.runUntraced, s.spec.EndToEnd
	if s.traced {
		run, metrics = s.runTraced, s.spec.PerLayer
	}
	if err := run(w, dir, &c, &res); err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Correct = c.attempted, c.failed, c.failed == 0
	for _, m := range metrics {
		sm := res.Metrics[m.Name]
		logx.Infof("%-12s %-24s %12.6g %-6s q1 %-12.6g median %-12.6g q3 %-12.6g n %d",
			w.name, m.Name, sm.Value, m.Unit, sm.Q1, sm.Median, sm.Q3, len(sm.Samples))
	}
	logx.Infof("%-12s checks: %d attempted, %d failed", w.name, c.attempted, c.failed)
	return res, nil
}

// repeat calls f until another call would likely end after seconds —
// judged by the median call so far — and at least atLeast times.
func repeat(seconds float64, atLeast int, f func(i int) error) error {
	var elapsed float64
	var durs []float64
	for len(durs) < atLeast || elapsed+median(durs) <= seconds {
		d, err := measure(func() error { return f(len(durs)) })
		if err != nil {
			return err
		}
		elapsed += d
		durs = append(durs, d)
	}
	return nil
}

// runUntraced gathers end-to-end samples, one per repro child. A child
// must reproduce the results of the run's first child with its seed
// exactly.
func (s *session) runUntraced(w workload, dir string, c *checker, res *workloadResult) error {
	samples := map[string][]float64{}
	first := make([][]telemetry.ResultRecord, seedsPerRun)
	err := repeat(s.seconds, minChildren, func(i int) error {
		child, err := runChild(s.repro, dir, w.args(res.Seeds[i%seedsPerRun]))
		if err != nil {
			return err
		}
		w.check(c, s.root, s.golden, child)
		if prev := first[i%seedsPerRun]; prev == nil {
			first[i%seedsPerRun] = child.manifest.Results
		} else {
			c.checkSame("repeat at one seed", child.manifest.Results, prev)
		}
		for _, m := range s.spec.EndToEnd {
			samples[m.Name] = append(samples[m.Name], endToEnd[m.Name].sample(child))
		}
		return nil
	})
	for _, m := range s.spec.EndToEnd {
		res.Metrics[m.Name] = summarize(m.Unit, samples[m.Name], endToEnd[m.Name].fastest)
	}
	return err
}

// runTraced gathers per-layer samples. Each iteration runs one untraced
// child (whose manifest carries the program's always-on counters), then
// replays the workload's figures in-process with one worker: first plain,
// then traced. The replays' outputs must equal the child's at rtol 0.
// Spans accumulate across iterations and are written as Chrome trace JSON.
func (s *session) runTraced(w workload, dir string, c *checker, res *workloadResult) error {
	tracer := trace.New()
	samples := map[string][]float64{}
	err := repeat(s.seconds, 1, func(i int) error {
		sd := res.Seeds[i%seedsPerRun]
		child, err := runChild(s.repro, dir, w.args(sd))
		if err != nil {
			return err
		}
		w.check(c, s.root, s.golden, child)
		it := iteration{child: child, p: newProbe()}
		var plain, traced []telemetry.ResultRecord
		runtime.GC()
		if it.plain, err = measure(func() (err error) {
			plain, err = w.replay(s.replayer(nil, trace.Span{}, w, sd))
			return err
		}); err != nil {
			return err
		}
		runtime.GC()
		root := tracer.Root("workload "+w.name, trace.Int("iteration", i), trace.Int64("seed", sd))
		it.traced, err = measure(func() (err error) {
			traced, err = w.replay(s.replayer(it.p, root, w, sd))
			return err
		})
		root.End()
		if err != nil {
			return err
		}
		c.checkSame("plain replay", child.manifest.Results, plain)
		c.checkSame("traced replay", child.manifest.Results, traced)
		for _, m := range s.spec.PerLayer {
			samples[m.Name] = append(samples[m.Name], perLayer[m.Name].value(it))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, m := range s.spec.PerLayer {
		res.Metrics[m.Name] = summarize(m.Unit, samples[m.Name], false)
	}
	path := filepath.Join(s.outDir, "traces", w.name+"-seed"+strconv.FormatInt(s.seed, 10)+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tracer.WriteChromeFile(path); err != nil {
		return err
	}
	logx.Infof("%-12s wrote %d spans to %s (open in Perfetto)", w.name, tracer.Len(), path)
	return nil
}

func (s *session) replayer(p *probe, sp trace.Span, w workload, sd int64) *replayer {
	return &replayer{p: p, sp: sp, seed: sd, reps: w.reps, frames: w.frames, eng: runner.New(1)}
}

// writeResultLine writes the result object read from the last line of stdout:
// each metric's value over the run, with its unit.
func writeResultLine(w io.Writer, s *spec, res workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if sm, ok := res.Metrics[m.Name]; ok {
			line.Metrics[m.Name] = value{sm.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// record is one invocation written by -out: the host, the settings, and
// every workload's samples and summaries. -compare reads two of them.
type record struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

func (r record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
