package main

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// committedRTol is the tolerance between an analytic output and its
// committed copy in results/: the ROADMAP's closed-form tolerance. CTS
// values are integers well below 1e9, so any change to one exceeds it.
const committedRTol = 1e-9

// checker counts output checks. A failed check is logged with its reason
// and makes the run incorrect; attempted and failed feed the result line.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		telemetry.Log.Errorf("check failed: "+format, args...)
	}
}

// within reports |a−b| ≤ rtol·max(|a|,|b|); rtol 0 demands equality and
// NaN never matches.
func within(a, b, rtol float64) bool {
	return math.Abs(a-b) <= rtol*math.Max(math.Abs(a), math.Abs(b))
}

func allWithin(a, b []float64, rtol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !within(a[i], b[i], rtol) {
			return false
		}
	}
	return true
}

// checkManifest checks that the child completed every stage without error
// and produced exactly the workload's results.
func (c *checker) checkManifest(m *telemetry.Manifest, ids []string) {
	c.check(m.Summary != nil, "manifest has no summary line (run did not finish)")
	for _, s := range m.Stages {
		c.check(s.Err == "", "stage %s failed: %s", s.ID, s.Err)
	}
	var got []string
	for _, r := range m.Results {
		got = append(got, r.ID)
	}
	c.check(slices.Equal(got, ids), "results %v, want %v", got, ids)
}

// checkCommitted compares the child's CSV for every result with the
// committed results/<id>.csv: same header and x column, every value
// within committedRTol. Table 1 has no CSV; its text must match exactly.
func (c *checker) checkCommitted(root, outDir string, m *telemetry.Manifest) {
	for _, r := range m.Results {
		name := r.ID + ".csv"
		got, err1 := readCSV(filepath.Join(outDir, name))
		want, err2 := readCSV(filepath.Join(root, "results", name))
		c.check(err1 == nil && err2 == nil && csvWithin(got, want, committedRTol),
			"%s differs from results/%s (read errors: %v, %v)", name, name, err1, err2)
	}
	if slices.ContainsFunc(m.Stages, func(s telemetry.StageRecord) bool { return s.ID == "table1" }) {
		got, err1 := os.ReadFile(filepath.Join(outDir, "table1.txt"))
		want, err2 := os.ReadFile(filepath.Join(root, "results", "table1.txt"))
		c.check(err1 == nil && err2 == nil && string(got) == string(want),
			"table1.txt differs from results/table1.txt (read errors: %v, %v)", err1, err2)
	}
}

func readCSV(path string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csv.NewReader(f).ReadAll()
}

// csvWithin compares two CSV tables cell by cell: the header row exactly,
// numeric cells within rtol.
func csvWithin(got, want [][]string, rtol float64) bool {
	if len(got) == 0 || len(got) != len(want) || !slices.Equal(got[0], want[0]) {
		return false
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			g, err1 := strconv.ParseFloat(got[i][j], 64)
			w, err2 := strconv.ParseFloat(want[i][j], 64)
			if err1 != nil || err2 != nil {
				if got[i][j] != want[i][j] {
					return false
				}
				continue
			}
			if !within(g, w, rtol) {
				return false
			}
		}
	}
	return true
}

// checkSimulated checks the invariants every simulated result holds at
// any seed: finite values, CLR in [0, 1], Lo ≤ Y ≤ Hi, one convergence
// verdict per point, and — for open-loop coupled sweeps, where every
// buffer sees one arrival path — CLR non-increasing in buffer size.
// Series without confidence bounds are analytic and checked elsewhere.
func (c *checker) checkSimulated(r telemetry.ResultRecord) {
	for _, s := range r.Series {
		if s.Lo == nil {
			continue
		}
		id := r.ID + " " + s.Label
		c.check(len(s.Lo) == len(s.Y) && len(s.Hi) == len(s.Y) && len(s.X) == len(s.Y),
			"%s: %d x, %d y, %d lo, %d hi", id, len(s.X), len(s.Y), len(s.Lo), len(s.Hi))
		c.check(len(s.Conv) == len(s.Y), "%s: %d convergence verdicts for %d points", id, len(s.Conv), len(s.Y))
		finite, inRange, ordered := true, true, true
		for i := range min(len(s.Y), len(s.Lo), len(s.Hi)) {
			for _, v := range []float64{s.Y[i], s.Lo[i], s.Hi[i]} {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			inRange = inRange && s.Y[i] >= 0 && s.Y[i] <= 1
			ordered = ordered && s.Lo[i] <= s.Y[i] && s.Y[i] <= s.Hi[i]
		}
		c.check(finite, "%s: non-finite value in %v / %v / %v", id, s.Y, s.Lo, s.Hi)
		c.check(inRange, "%s: CLR outside [0, 1]: %v", id, s.Y)
		c.check(ordered, "%s: Lo ≤ Y ≤ Hi violated", id)
		if !strings.HasPrefix(s.Label, "AIMD[") {
			c.check(nonIncreasing(s.Y), "%s: coupled-sweep CLR increases with buffer: %v", id, s.Y)
		}
	}
}

// nonIncreasing allows a rise within committedRTol: two buffers that lose
// the same cells can sum them in a different order.
func nonIncreasing(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1] && !within(ys[i], ys[i-1], committedRTol) {
			return false
		}
	}
	return true
}

// checkFig10 checks Fig 10 against seed-independent references: its
// Bahadur-Rao and large-N series against the golden manifest's within
// committedRTol, and its simulated zero-buffer CLR against the fluid
// zero-buffer CLR every model must reproduce, within three of the run's
// own 95% confidence half-widths (≈6σ, so a correct run at any seed
// passes while a biased simulator does not).
func (c *checker) checkFig10(r telemetry.ResultRecord, golden *telemetry.Manifest) {
	ref, ok := findResult(golden.Results, "fig10")
	c.check(ok, "golden manifest has no fig10")
	for _, label := range []string{"Bahadur-Rao", "Large-N"} {
		got, ok1 := findSeries(r, label)
		want, ok2 := findSeries(ref, label)
		c.check(ok1 && ok2 && allWithin(got.X, want.X, 0) && allWithin(got.Y, want.Y, committedRTol),
			"fig10 %s differs from the golden manifest", label)
	}
	sim, ok := findSeries(r, "simulated CLR")
	zero := experiments.ZeroBufferCheck(experiments.BopC, experiments.BopN)
	c.check(ok && len(sim.Y) > 0 && len(sim.Hi) > 0 && len(sim.Lo) > 0 &&
		math.Abs(sim.Y[0]-zero) <= 3*(sim.Hi[0]-sim.Lo[0])/2,
		"fig10 zero-buffer CLR %v not within 3 CI half-widths of the fluid value %v", sim.Y, zero)
}

func findResult(rs []telemetry.ResultRecord, id string) (telemetry.ResultRecord, bool) {
	for _, r := range rs {
		if r.ID == id {
			return r, true
		}
	}
	return telemetry.ResultRecord{}, false
}

func findSeries(r telemetry.ResultRecord, label string) (telemetry.SeriesRecord, bool) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, true
		}
	}
	return telemetry.SeriesRecord{}, false
}

// checkSame checks that every result of want appears in got with the same
// series — labels, x grid, estimates and confidence bounds — at rtol 0:
// repeated runs at one seed, and the traced replay, must reproduce the
// child bit for bit.
func (c *checker) checkSame(what string, got, want []telemetry.ResultRecord) {
	for _, w := range want {
		g, ok := findResult(got, w.ID)
		c.check(ok && sameSeries(g.Series, w.Series), "%s: %s differs", what, w.ID)
	}
}

func sameSeries(a, b []telemetry.SeriesRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || !allWithin(a[i].X, b[i].X, 0) || !allWithin(a[i].Y, b[i].Y, 0) ||
			!allWithin(a[i].Lo, b[i].Lo, 0) || !allWithin(a[i].Hi, b[i].Hi, 0) {
			return false
		}
	}
	return true
}
