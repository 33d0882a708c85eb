package main

import (
	"strconv"

	"repro/internal/telemetry"
)

// workload is one set of repro inputs. Every workload is a batch run: one
// repro child at a time, each started when the previous one has exited,
// with -workers nproc. The reasons each exists are in BENCHMARK.json.
type workload struct {
	name         string
	exp          string // repro -exp
	reps, frames int    // simulation scale; 0 for the analytic workload
	ids          []string
	replay       func(r *replayer) ([]telemetry.ResultRecord, error)
}

// workloads are sized so one child takes ≈1.5–2 s on a 2-vCPU host, so a
// run of BENCHMARK.json's run_seconds gathers about ten children.
var workloads = []workload{
	{
		// V(m) lag extension, CTS scans and Bahadur-Rao, serially; no
		// generator, mux or runner. Figs 4 and 5 (7 s each here) are left
		// out to fit the run length; Fig 7's wide grid extends the same
		// memo furthest.
		name: "analytic",
		exp:  "table1,fig1,fig3,fig6,fig7,extmpeg,extsub,extweibull",
		ids: []string{"fig1a", "fig1b", "fig3a", "fig3b", "fig3c", "fig3d", "fig6a", "fig6b", "fig7a", "fig7b",
			"extmpeg-cts", "extmpeg-bop", "extsub-cts", "extsub-bop", "extweibull-h70", "extweibull-h86", "extweibull-h90"},
		replay: replayAnalytic,
	},
	{
		// FBNDP-driven V/Z/L generation dominates (fig8's V^v).
		name: "sim-lrd", exp: "fig8,fig9", reps: 2, frames: 100,
		ids:    []string{"fig8a", "fig8b", "fig9a", "fig9b"},
		replay: replaySimLRD,
	},
	{
		// DAR(1) only: generator Fill, block aggregation and the runner's
		// fan-out of the paper's 60 replications.
		name: "dar-fanout", exp: "fig10", reps: 60, frames: 100000,
		ids:    []string{"fig10"},
		replay: replayDAR,
	},
	{
		// Per-buffer stepped runs with per-frame AIMD feedback beside
		// open-loop coupled sweeps.
		name: "closed-loop", exp: "extloop", reps: 2, frames: 100,
		ids:    []string{"extloop"},
		replay: replayClosedLoop,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// args are the child's repro arguments for seed (beside -out, -quiet and
// -workers).
func (w workload) args(seed int64) []string {
	a := []string{"-exp", w.exp, "-seed", strconv.FormatInt(seed, 10)}
	if w.reps > 0 {
		a = append(a, "-reps", strconv.Itoa(w.reps), "-frames", strconv.Itoa(w.frames))
	}
	return a
}

// check runs the output checks on one child.
func (w workload) check(c *checker, root string, golden *telemetry.Manifest, child childRun) {
	m := child.manifest
	c.checkManifest(m, w.ids)
	if w.reps == 0 {
		c.checkCommitted(root, child.outDir, m)
		return
	}
	for _, r := range m.Results {
		c.checkSimulated(r)
		if r.ID == "fig10" {
			c.checkFig10(r, golden)
		}
	}
}
