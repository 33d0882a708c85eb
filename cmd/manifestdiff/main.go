// Command manifestdiff compares two run manifests series by series and
// reports numerical drift — the scientific audit that turns "the numbers
// look similar" into a machine-checkable gate. CI diffs every fixed-seed
// smoke run against a committed golden manifest, so an unintended change
// to any result (a solver tweak, a generator reorder, a compiler surprise)
// fails the build instead of silently shifting a figure.
//
// Usage:
//
//	manifestdiff [-rtol 1e-9] [-atol 0] [-series PAT=RTOL,...]
//	             [-fail-on-drift] [-v] [-quiet] GOLDEN CANDIDATE
//
// Two values match when |a−b| ≤ atol + rtol·max(|a|,|b|); the default
// rtol 1e-9 treats last-bit float formatting differences as equal while
// catching any real change. Per-series overrides ("fig8a/*=1e-6") use
// path.Match globs against "resultID/seriesLabel" and take the first
// matching pattern. Missing results, missing series, length mismatches and
// seed mismatches are always drift, and so is any difference in a point's
// convergence record count n or quarantined non-finite count, whatever
// the tolerance: a replication whose estimate turned NaN fails the diff
// even when the finite ones agree. Exit status: 0 = no drift, 1 = usage
// or I/O error, 2 = drift detected (with -fail-on-drift; without it the
// report is printed and the exit is 0, for exploratory comparisons).
//
// For every moved estimate y the report also says whether each run's
// estimate lies inside the other run's [lo, hi], and if not, whether the
// two intervals still overlap: the evidence a deliberate re-baseline,
// such as a changed generator draw order, needs. Two runs of one
// distribution put each estimate inside the other's exact 95% interval
// only about 83% of the time, so disjoint intervals are the finding.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

var logx = telemetry.Log

func main() {
	var (
		rtol    = flag.Float64("rtol", 1e-9, "default relative tolerance")
		atol    = flag.Float64("atol", 0, "absolute tolerance added to the relative term")
		series  = flag.String("series", "", "per-series overrides: comma-separated glob=rtol pairs matched against resultID/seriesLabel (e.g. 'fig8a/*=1e-6')")
		failDr  = flag.Bool("fail-on-drift", false, "exit with status 2 when any drift is found")
		verbose = flag.Bool("v", false, "report every compared series, not just drifting ones")
		quiet   = flag.Bool("quiet", false, "log errors only (overrides -v)")
	)
	flag.Parse()
	logx.SetPrefix("manifestdiff")
	logx.SetLevel(telemetry.LevelFromFlags(*verbose, *quiet))
	if flag.NArg() != 2 {
		logx.Errorf("usage: manifestdiff [flags] GOLDEN CANDIDATE")
		os.Exit(1)
	}
	overrides, err := parseOverrides(*series)
	if err != nil {
		fatal(err)
	}
	golden, err := telemetry.ReadManifest(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cand, err := telemetry.ReadManifest(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	d := differ{rtol: *rtol, atol: *atol, overrides: overrides}
	d.compare(golden, cand)
	if d.moved > 0 {
		logx.Infof("%d moved estimate(s): %d inside both runs' CIs, %d with overlapping CIs only, %d with disjoint CIs",
			d.moved, d.moved-d.overlapOnly-d.disjoint, d.overlapOnly, d.disjoint)
	}

	if d.drifts == 0 {
		logx.Infof("no drift: %d series compared, %d values within tolerance", d.seriesSeen, d.valuesSeen)
		return
	}
	fmt.Fprintf(os.Stderr, "manifestdiff: %d drift(s) across %d series (%d values compared)\n",
		d.drifts, d.seriesSeen, d.valuesSeen)
	if *failDr {
		os.Exit(2)
	}
}

// differ accumulates the comparison state and report.
type differ struct {
	rtol, atol float64
	overrides  []override

	seriesSeen  int
	valuesSeen  int
	drifts      int
	moved       int // estimates y that drifted
	overlapOnly int // of those, points whose y leaves the other run's [lo, hi] while the intervals overlap
	disjoint    int // of those, points whose intervals are disjoint
}

type override struct {
	pattern string
	rtol    float64
}

// parseOverrides decodes "glob=rtol,glob=rtol" and validates the globs
// eagerly so a typo fails at startup, not silently at match time.
func parseOverrides(s string) ([]override, error) {
	var out []override
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pat, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -series entry %q (want glob=rtol)", part)
		}
		r, err := strconv.ParseFloat(val, 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad tolerance in -series entry %q", part)
		}
		if _, err := path.Match(pat, "probe"); err != nil {
			return nil, fmt.Errorf("bad glob in -series entry %q: %w", part, err)
		}
		out = append(out, override{pattern: pat, rtol: r})
	}
	return out, nil
}

// tolFor returns the relative tolerance for a series key
// ("resultID/label"), first matching override wins.
func (d *differ) tolFor(key string) float64 {
	for _, o := range d.overrides {
		if ok, _ := path.Match(o.pattern, key); ok {
			return o.rtol
		}
	}
	return d.rtol
}

func (d *differ) drift(format string, args ...any) {
	d.drifts++
	fmt.Printf("DRIFT  "+format+"\n", args...)
}

func (d *differ) compare(golden, cand *telemetry.Manifest) {
	// Seeds gate everything: two runs with different seeds are expected to
	// differ, so comparing their numbers would only produce noise.
	if golden.Header.Seed != cand.Header.Seed {
		d.drift("header: seed %d (golden) != %d (candidate); numeric comparison skipped",
			golden.Header.Seed, cand.Header.Seed)
		return
	}
	candRes := map[string]telemetry.ResultRecord{}
	for _, r := range cand.Results {
		candRes[r.ID] = r
	}
	for _, gr := range golden.Results {
		cr, ok := candRes[gr.ID]
		if !ok {
			d.drift("%s: result missing from candidate", gr.ID)
			continue
		}
		d.compareResult(gr, cr)
	}
}

func (d *differ) compareResult(gr, cr telemetry.ResultRecord) {
	candSeries := map[string]telemetry.SeriesRecord{}
	for _, s := range cr.Series {
		candSeries[s.Label] = s
	}
	for _, gs := range gr.Series {
		key := gr.ID + "/" + gs.Label
		cs, ok := candSeries[gs.Label]
		if !ok {
			d.drift("%s: series missing from candidate", key)
			continue
		}
		d.seriesSeen++
		rtol := d.tolFor(key)
		before := d.drifts
		d.compareVec(key, "x", gs.X, cs.X, rtol)
		d.compareVec(key, "y", gs.Y, cs.Y, rtol)
		d.compareVec(key, "lo", gs.Lo, cs.Lo, rtol)
		d.compareVec(key, "hi", gs.Hi, cs.Hi, rtol)
		d.compareConv(key, gs.Conv, cs.Conv)
		d.compareCI(key, gs, cs, rtol)
		if d.drifts == before {
			logx.Debugf("%s: ok (%d points, rtol %g)", key, len(gs.Y), rtol)
		}
	}
}

func (d *differ) compareVec(key, col string, g, c []float64, rtol float64) {
	if len(g) != len(c) {
		d.drift("%s.%s: length %d (golden) != %d (candidate)", key, col, len(g), len(c))
		return
	}
	for i := range g {
		d.valuesSeen++
		if !withinTol(g[i], c[i], rtol, d.atol) {
			d.drift("%s.%s[%d]: %.17g (golden) != %.17g (candidate), rel err %.3g, rtol %g",
				key, col, i, g[i], c[i], relErr(g[i], c[i]), rtol)
		}
	}
}

// compareCI reports, for every moved estimate, whether each run's y lies
// inside the other run's [lo, hi], or else whether the intervals overlap:
// the evidence that a re-baseline moved a point only by sampling noise.
func (d *differ) compareCI(key string, g, c telemetry.SeriesRecord, rtol float64) {
	n := len(g.Y)
	if len(c.Y) != n || len(g.Lo) != n || len(g.Hi) != n || len(c.Lo) != n || len(c.Hi) != n {
		return // compareVec has reported the length drift
	}
	for i := range g.Y {
		if withinTol(g.Y[i], c.Y[i], rtol, d.atol) {
			continue
		}
		d.moved++
		verdict := "inside both CIs"
		switch {
		case g.Hi[i] < c.Lo[i] || c.Hi[i] < g.Lo[i]:
			d.disjoint++
			verdict = "DISJOINT CIs"
		case !(c.Y[i] >= g.Lo[i] && c.Y[i] <= g.Hi[i] && g.Y[i] >= c.Lo[i] && g.Y[i] <= c.Hi[i]):
			d.overlapOnly++
			verdict = "CIs overlap"
		}
		fmt.Printf("CI     %s.y[%d]: %.4g [%.4g, %.4g] (golden) vs %.4g [%.4g, %.4g] (candidate): %s\n",
			key, i, g.Y[i], g.Lo[i], g.Hi[i], c.Y[i], c.Lo[i], c.Hi[i], verdict)
	}
}

// compareConv checks the per-point convergence records exactly. n and
// non_finite are counts, not estimates, so no tolerance applies; rel_ci
// and outcome derive from the estimates compareVec already checked.
func (d *differ) compareConv(key string, g, c []telemetry.ConvRecord) {
	if len(g) != len(c) {
		d.drift("%s.conv: length %d (golden) != %d (candidate)", key, len(g), len(c))
		return
	}
	for i := range g {
		if g[i].N != c[i].N || g[i].NonFinite != c[i].NonFinite {
			d.drift("%s.conv[%d]: n %d, non_finite %d (golden) != n %d, non_finite %d (candidate)",
				key, i, g[i].N, g[i].NonFinite, c[i].N, c[i].NonFinite)
		}
	}
}

// withinTol implements |a−b| ≤ atol + rtol·max(|a|,|b|), with NaN equal to
// NaN (a manifest recording NaN twice has not drifted).
func withinTol(a, b, rtol, atol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	//lint:floateq bit-identical values (incl. ±Inf, where the tolerance arithmetic would produce NaN) are never drift
	if a == b {
		return true
	}
	return math.Abs(a-b) <= atol+rtol*math.Max(math.Abs(a), math.Abs(b))
}

// relErr reports |a−b|/max(|a|,|b|) for drift messages (0 when both zero).
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func fatal(err error) {
	logx.Errorf("%v", err)
	os.Exit(1)
}
