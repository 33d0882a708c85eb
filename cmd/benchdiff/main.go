// Command benchdiff records the repository's benchmark trajectory and
// reports regressions. It runs the root-package benchmarks (or parses a
// pre-recorded `go test -bench` output), writes the results as
// bench/BENCH_<date>.json, and diffs them against the most recent previous
// recording with a configurable regression threshold.
//
// Usage:
//
//	benchdiff [-dir bench] [-bench REGEX] [-benchtime 1x] [-pkg .]
//	          [-threshold 0.20] [-parse FILE] [-against FILE]
//	          [-write=true] [-fail]
//
// Typical flows:
//
//	benchdiff                         # run, record today's file, diff vs latest
//	benchdiff -benchtime 3s -fail     # gate: exit 1 on any regression
//	benchdiff -parse out.txt -write=false   # report-only on captured output
//
// CI runs it with -benchtime 1x as a non-blocking report step: shared
// runners are too noisy to gate on, but the per-PR delta table plus the
// committed BENCH_*.json trail make real slowdowns in the hot paths
// (block-streamed mux, FGN synthesis, CTS sweeps) visible the day they
// land. For trustworthy numbers run locally with -benchtime 3s on an idle
// machine before and after a performance-sensitive change.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/telemetry"
)

var logx = telemetry.Log

func main() {
	var (
		dir       = flag.String("dir", "bench", "directory holding BENCH_<date>.json recordings")
		benchRe   = flag.String("bench", ".", "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value (e.g. 1x, 3s)")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		threshold = flag.Float64("threshold", 0.20, "fractional worsening flagged as regression (0.20 = 20%)")
		parse     = flag.String("parse", "", "parse this pre-recorded `go test -bench` output instead of running")
		against   = flag.String("against", "", "baseline BENCH_*.json (default: newest in -dir older than today's)")
		write     = flag.Bool("write", true, "write BENCH_<date>.json into -dir")
		failFlag  = flag.Bool("fail", false, "exit 1 when regressions are found (default: report only)")
		verbose   = flag.Bool("v", false, "show all comparisons, not only interesting ones")
		quiet     = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	flag.Parse()
	logx.SetPrefix("benchdiff")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))

	bs, err := collect(*parse, *benchRe, *benchtime, *pkg)
	if err != nil {
		fatal(err)
	}
	if len(bs) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed"))
	}
	host, _ := os.Hostname()
	cur := benchfmt.File{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GitRevision: telemetry.GitRevision(),
		Host:        host,
		Benchmarks:  bs,
	}

	curPath := filepath.Join(*dir, "BENCH_"+cur.Date+".json")
	basePath := *against
	if basePath == "" {
		latest, err := benchfmt.Latest(*dir)
		if err != nil {
			fatal(err)
		}
		// Re-running on the same day must not diff against itself.
		if latest == curPath {
			basePath = previous(*dir, curPath)
		} else {
			basePath = latest
		}
	}

	if *write {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
		if err := benchfmt.WriteFile(curPath, cur); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d benchmarks to %s\n", len(bs), curPath)
	}

	// A single recording is the expected state of a fresh checkout or a
	// first CI run, not an error: say so plainly and exit 0 so report-only
	// pipelines don't need special-casing.
	if basePath == "" {
		if *write {
			fmt.Printf("no baseline found: %s holds no BENCH_*.json older than %s; today's recording becomes the baseline for the next run\n",
				*dir, curPath)
		} else {
			fmt.Printf("no baseline found: %s holds no BENCH_*.json to diff against (and -write=false recorded nothing); nothing to compare\n",
				*dir)
		}
		return
	}
	base, err := benchfmt.ReadFile(basePath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("diff vs %s (%s, %s):\n", basePath, base.Date, base.GitRevision)
	deltas := benchfmt.Diff(base, cur, *threshold)
	benchfmt.Report(os.Stdout, deltas, benchfmt.Removed(base, cur), *threshold, !*verbose)
	if *failFlag && benchfmt.Regressions(deltas) > 0 {
		os.Exit(1)
	}
}

// collect obtains benchmark results either from a capture file or by
// running the benchmarks.
func collect(parsePath, benchRe, benchtime, pkg string) ([]benchfmt.Benchmark, error) {
	if parsePath != "" {
		f, err := os.Open(parsePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return benchfmt.Parse(f)
	}
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchtime", benchtime, pkg}
	logx.Infof("go %s", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return benchfmt.Parse(strings.NewReader(string(out)))
}

// previous returns the newest BENCH_*.json in dir older than exclude
// ("" when none).
func previous(dir, exclude string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	prev := ""
	for _, m := range matches {
		if m != exclude && m > prev && m < exclude {
			prev = m
		}
	}
	return prev
}

func fatal(err error) {
	logx.Errorf("%v", err)
	os.Exit(1)
}
