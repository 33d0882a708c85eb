package main

import (
	"math"
	"runtime"

	"repro/internal/telemetry"
)

// e2eMetric is one end-to-end metric: its sample from one untraced repro
// child, and whether a run reports its fastest child or its median.
type e2eMetric struct {
	sample  func(c childRun) float64
	fastest bool
}

// endToEnd reports the times of the fastest child and the median set-up
// time and memory. Other tenants of a shared host, and costly draws of
// the heavy-tailed generators, only ever slow a child: the fastest child
// is the least disturbed measurement of the code.
var endToEnd = map[string]e2eMetric{
	"wall_s":     {func(c childRun) float64 { return c.wall }, true},
	"cpu_s":      {func(c childRun) float64 { return c.cpu }, true},
	"setup_s":    {func(c childRun) float64 { return c.setup() }, false},
	"max_rss_mb": {func(c childRun) float64 { return c.rssMiB }, false},
}

// iteration is one traced sample: an untraced child for the manifest's
// always-on counters, then the same figures replayed in-process twice —
// plain, and traced through the probe.
type iteration struct {
	child  childRun
	plain  float64 // plain replay wall, seconds
	traced float64 // traced replay wall, seconds
	p      *probe
}

func (it iteration) layer(name string) float64 { return it.p.layer(name).SumSeconds() }

// busy is the replay's time inside the layer calls the program itself
// makes: the cold Moments pass and every mux call. The warm pass exists
// only to split the cold one, so it is not counted.
func (it iteration) busy() float64 {
	return it.layer(layerCold) + it.layer(layerSweep) + it.layer(layerClosed)
}

func (it iteration) share(seconds float64) float64 { return seconds / it.traced }

func (it iteration) count(c *telemetry.Counter) float64 { return float64(c.Value()) }

// perSecond is n per busy second, 0 when the layer did no work.
func perSecond(n, seconds float64) float64 {
	if n == 0 || seconds <= 0 {
		return 0
	}
	return n / seconds
}

// layerMetric is one per-layer metric: how it is measured, and — written
// down before any optimisation is measured against it — which end-to-end
// metrics it should move, on which workloads it should move them, and on
// which the prediction is no change.
type layerMetric struct {
	moves, on, unchanged []string
	value                func(it iteration) float64
}

var (
	allWorkloads = []string{"analytic", "sim-lrd", "dar-fanout", "closed-loop"}
	sims         = []string{"sim-lrd", "dar-fanout", "closed-loop"}
)

func familyRate(fam string) layerMetric {
	on := map[string][]string{
		"V": {"sim-lrd", "closed-loop"}, "Z": {"sim-lrd", "closed-loop"},
		"S": {"sim-lrd", "dar-fanout", "closed-loop"}, "L": {"sim-lrd", "closed-loop"},
	}[fam]
	return layerMetric{
		moves: []string{"wall_s", "cpu_s"}, on: on, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			return perSecond(it.count(it.p.frames(fam)), it.p.genTimer("fill", fam).SumSeconds())
		},
	}
}

var perLayer = map[string]layerMetric{
	"experiments.stage_s": {
		moves: []string{"wall_s"}, on: allWorkloads,
		value: func(it iteration) float64 { return it.child.stages },
	},
	"traffic.acf_evals": {
		moves: []string{"wall_s", "max_rss_mb"}, on: []string{"analytic", "dar-fanout"}, unchanged: []string{"sim-lrd", "closed-loop"},
		value: func(it iteration) float64 { return it.count(it.p.acfEvals) },
	},
	"traffic.memo_lags": {
		moves: []string{"max_rss_mb"}, on: []string{"analytic", "dar-fanout"}, unchanged: []string{"sim-lrd", "closed-loop"},
		value: func(it iteration) float64 { return it.count(it.p.memoLags) },
	},
	"traffic.extend_share": {
		moves: []string{"wall_s", "cpu_s"}, on: []string{"analytic"}, unchanged: []string{"sim-lrd", "closed-loop"},
		value: func(it iteration) float64 { return it.share(math.Max(it.layer(layerCold)-it.layer(layerWarm), 0)) },
	},
	"core.cts_calls": {
		moves: []string{"wall_s"}, on: []string{"analytic", "dar-fanout"}, unchanged: []string{"sim-lrd", "closed-loop"},
		value: func(it iteration) float64 { return it.count(it.p.ctsCalls) },
	},
	"core.cts_calls_per_s": {
		moves: []string{"wall_s"}, on: []string{"analytic"}, unchanged: []string{"sim-lrd", "closed-loop"},
		value: func(it iteration) float64 { return perSecond(it.count(it.p.ctsCalls), it.layer(layerWarm)) },
	},
	"models.new_share": {
		moves: []string{"wall_s", "cpu_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.share(it.p.genSeconds("new")) },
	},
	"models.fill_share": {
		moves: []string{"wall_s", "cpu_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.share(it.p.genSeconds("fill")) },
	},
	"models.V.frames_per_s": familyRate("V"),
	"models.Z.frames_per_s": familyRate("Z"),
	"models.S.frames_per_s": familyRate("S"),
	"models.L.frames_per_s": familyRate("L"),
	"mux.self_share": {
		moves: []string{"wall_s", "cpu_s"}, on: []string{"dar-fanout", "closed-loop"}, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			return it.share(it.layer(layerSweep) + it.layer(layerClosed) - it.p.genSeconds("fill") - it.p.genSeconds("new"))
		},
	},
	"mux.frames": {
		moves: []string{"wall_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.child.metric("mux_frames_total").Value },
	},
	"mux.runs_chunked": {
		moves: []string{"wall_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			return it.child.metric("mux_path_runs_total", telemetry.L("path", "chunked")).Value
		},
	},
	"mux.runs_stepped": {
		moves: []string{"wall_s"}, on: []string{"closed-loop"}, unchanged: []string{"analytic", "sim-lrd", "dar-fanout"},
		value: func(it iteration) float64 {
			return it.child.metric("mux_path_runs_total", telemetry.L("path", "stepped")).Value
		},
	},
	"mux.feedback_steps": {
		moves: []string{"wall_s"}, on: []string{"closed-loop"}, unchanged: []string{"analytic", "sim-lrd", "dar-fanout"},
		value: func(it iteration) float64 { return it.child.metric("mux_feedback_steps_total").Value },
	},
	"mux.fill_cpu_share": {
		moves: []string{"cpu_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.child.metric("mux_chunk_fill_seconds").Sum / it.child.cpu },
	},
	"mux.drain_cpu_share": {
		moves: []string{"cpu_s"}, on: []string{"dar-fanout", "closed-loop"}, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.child.metric("mux_chunk_drain_seconds").Sum / it.child.cpu },
	},
	"mux.pool_miss_ratio": {
		moves: []string{"max_rss_mb"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			gets := it.child.metric("mux_chunk_pool_gets_total").Value
			if gets == 0 {
				return 0
			}
			return it.child.metric("mux_chunk_pool_misses_total").Value / gets
		},
	},
	"runner.reps": {
		moves: []string{"wall_s"}, on: sims, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.child.metric("runner_reps_done_total").Value },
	},
	"runner.lane_imbalance": {
		moves: []string{"wall_s"}, on: []string{"sim-lrd", "dar-fanout"}, unchanged: []string{"analytic"},
		value: func(it iteration) float64 { return it.child.laneImbalance() },
	},
	"runner.cpu_util": {
		moves: []string{"wall_s"}, on: []string{"sim-lrd", "dar-fanout"}, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			return it.child.cpu / (it.child.wall * float64(runtime.GOMAXPROCS(0)))
		},
	},
	"runner.scaling_eff": {
		moves: []string{"wall_s"}, on: []string{"dar-fanout", "sim-lrd"}, unchanged: []string{"analytic"},
		value: func(it iteration) float64 {
			return it.plain / (float64(runtime.NumCPU()) * it.child.stages)
		},
	},
	"ledger.unexplained_frac": {
		value: func(it iteration) float64 { return math.Abs(it.child.cpu-it.busy()) / it.child.cpu },
	},
	"trace.overhead_frac": {
		value: func(it iteration) float64 { return it.traced/it.plain - 1 },
	},
}
