// Package benchfmt parses `go test -bench` output into structured records,
// serialises them as BENCH_<date>.json files, and diffs two such files
// with a configurable regression threshold. cmd/benchdiff is the CLI; CI
// runs it as a non-blocking report step so the benchmark trajectory of the
// repository (BENCH_*.json under bench/) stays populated and regressions
// in the hot paths — block-streamed multiplexing, FGN synthesis, CTS
// sweeps — are visible in every pull request.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped, so
	// files recorded on machines with different core counts still diff.
	Name string `json:"name"`
	// Iterations is the b.N the reported means were measured over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: "ns/op", "B/op", "allocs/op" and any
	// custom b.ReportMetric units such as "frames/sec".
	Metrics map[string]float64 `json:"metrics"`
}

// File is one recorded benchmark run, the schema of BENCH_<date>.json.
type File struct {
	Date        string      `json:"date"` // YYYY-MM-DD
	GoVersion   string      `json:"go_version,omitempty"`
	GitRevision string      `json:"git_revision,omitempty"`
	Host        string      `json:"host,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse extracts benchmark result lines from `go test -bench` output,
// tolerating the interleaved PASS/ok/log noise. Lines look like
//
//	BenchmarkMuxRunBlock-8  92  12860944 ns/op  1.27e+09 frames/sec  16 B/op  1 allocs/op
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q in line %q", fields[i], line)
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: read: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// WriteFile serialises f as indented JSON at path.
func WriteFile(path string, f File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: encode: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile decodes a BENCH_*.json file.
func ReadFile(path string) (File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return File{}, fmt.Errorf("benchfmt: %w", err)
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return File{}, fmt.Errorf("benchfmt: decode %s: %w", path, err)
	}
	return f, nil
}

// Latest returns the lexicographically newest BENCH_*.json path under dir
// ("" when none exist) — dates are zero-padded ISO, so lexicographic is
// chronological.
func Latest(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", nil
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// LowerIsBetter reports the comparison direction for a metric unit:
// time and allocation units regress upward, rate units (anything per
// second) regress downward.
func LowerIsBetter(unit string) bool {
	return !strings.HasSuffix(unit, "/sec") && !strings.HasSuffix(unit, "/s")
}

// Delta is one (benchmark, unit) comparison between two recorded runs.
type Delta struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
	Ratio float64 `json:"ratio"` // New/Old
	// Regression is true when the change exceeds the threshold in the
	// unit's worse direction.
	Regression bool `json:"regression"`
}

// Change returns the signed fractional change in the "worse" direction:
// positive values mean worse, negative better, regardless of unit
// direction.
func (d Delta) Change() float64 {
	var ch float64
	switch {
	case d.Old == 0 && d.New == 0:
		return 0
	case d.Old == 0:
		// 0 → N has no finite ratio; treat it as an unbounded move so a
		// benchmark that starts allocating (0 → 1 allocs/op) always gates
		// rather than slipping under every threshold.
		ch = math.Inf(1)
	default:
		ch = d.New/d.Old - 1
	}
	if !LowerIsBetter(d.Unit) {
		ch = -ch
	}
	return ch
}

// Diff compares two recorded runs benchmark-by-benchmark. Only benchmarks
// and units present in both files are compared; threshold is the
// fractional worsening (e.g. 0.10 = 10%) beyond which a delta is flagged
// as a regression.
func Diff(old, new File, threshold float64) []Delta {
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	var out []Delta
	for _, nb := range new.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			continue
		}
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			if _, ok := ob.Metrics[u]; ok {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			d := Delta{Name: nb.Name, Unit: u, Old: ob.Metrics[u], New: nb.Metrics[u]}
			if d.Old != 0 {
				d.Ratio = d.New / d.Old
			}
			d.Regression = d.Change() > threshold
			out = append(out, d)
		}
	}
	return out
}

// Removed lists, sorted, the benchmarks the old run recorded and the new
// run lacks. Diff skips them; Report prints them so a deleted benchmark
// does not vanish from the comparison silently. A removal is never a
// regression.
func Removed(old, new File) []string {
	have := make(map[string]bool, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		have[b.Name] = true
	}
	var out []string
	for _, b := range old.Benchmarks {
		if !have[b.Name] {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Report renders deltas as an aligned table, regressions marked, then one
// line per removed benchmark. With onlyInteresting, unchanged comparisons
// (|change| ≤ threshold/2) are suppressed to keep CI logs short; removals
// and the summary line always appear.
func Report(w io.Writer, deltas []Delta, removed []string, threshold float64, onlyInteresting bool) {
	nReg := 0
	fmt.Fprintf(w, "%-44s %-12s %14s %14s %8s\n", "benchmark", "unit", "old", "new", "change")
	for _, d := range deltas {
		ch := d.Change()
		if d.Regression {
			nReg++
		}
		if onlyInteresting && !d.Regression && ch > -threshold/2 && ch < threshold/2 {
			continue
		}
		mark := ""
		switch {
		case d.Regression:
			mark = "  REGRESSION"
		case ch < -threshold:
			mark = "  improved"
		}
		change := fmt.Sprintf("%+7.1f%%", 100*(d.New/maxNonZero(d.Old)-1))
		if d.Old == 0 && d.New != 0 {
			change = "  0→new" // no finite ratio to print
		}
		fmt.Fprintf(w, "%-44s %-12s %14.5g %14.5g %s%s\n",
			d.Name, d.Unit, d.Old, d.New, change, mark)
	}
	for _, name := range removed {
		fmt.Fprintf(w, "%-44s removed\n", name)
	}
	fmt.Fprintf(w, "%d comparisons, %d regressions, %d removed (threshold %.0f%%)\n",
		len(deltas), nReg, len(removed), 100*threshold)
}

func maxNonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Regressions counts flagged deltas.
func Regressions(deltas []Delta) int {
	n := 0
	for _, d := range deltas {
		if d.Regression {
			n++
		}
	}
	return n
}
