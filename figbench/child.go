package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// childRun is one repro process: its resource use, as the benchmark saw
// it from outside, and the run manifest it wrote.
type childRun struct {
	wall     float64 // exec to exit, seconds
	cpu      float64 // user + system CPU, seconds (rusage)
	rssMiB   float64 // peak resident set, MiB (rusage)
	stages   float64 // Σ manifest stage wall_seconds
	manifest *telemetry.Manifest
	outDir   string
}

// setup is the child's time outside its figure stages: runtime start-up,
// flag parsing, manifest and observability set-up, writing outputs, and
// teardown.
func (c childRun) setup() float64 { return c.wall - c.stages }

// runChild runs `repro -out dir -quiet -workers nproc args...` to
// completion and reads its manifest. Standard output (the rendered
// tables) is discarded; the files under dir are what the checks read.
func runChild(repro, dir string, args []string) (childRun, error) {
	if err := os.RemoveAll(dir); err != nil {
		return childRun{}, err
	}
	argv := append([]string{"-out", dir, "-quiet", "-workers", strconv.Itoa(runtime.NumCPU())}, args...)
	cmd := exec.Command(repro, argv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	wall, err := measure(cmd.Run)
	if err != nil {
		return childRun{}, fmt.Errorf("repro %s: %v\n%s", strings.Join(argv, " "), err, stderr.String())
	}
	m, err := telemetry.ReadManifest(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		return childRun{}, err
	}
	c := childRun{
		wall:     wall,
		cpu:      (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
		rssMiB:   maxRSSMiB(cmd.ProcessState),
		manifest: m,
		outDir:   dir,
	}
	for _, s := range m.Stages {
		c.stages += s.WallSeconds
	}
	return c, nil
}

// metric returns the final snapshot of the manifest metric name whose
// labels include want (zero Snapshot when absent).
func (c childRun) metric(name string, want ...telemetry.Label) telemetry.Snapshot {
	if c.manifest.Summary == nil {
		return telemetry.Snapshot{}
	}
next:
	for _, s := range c.manifest.Summary.Metrics {
		if s.Name != name {
			continue
		}
		for _, l := range want {
			if s.Labels[l.Key] != l.Value {
				continue next
			}
		}
		return s
	}
	return telemetry.Snapshot{}
}

// laneImbalance is max/mean of the runner's per-lane replication counts
// (0 when no replication ran).
func (c childRun) laneImbalance() float64 {
	if c.manifest.Summary == nil {
		return 0
	}
	var sum, hi float64
	n := 0
	for _, s := range c.manifest.Summary.Metrics {
		if s.Name == "runner_lane_reps_done_total" {
			sum += s.Value
			hi = max(hi, s.Value)
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(n))
}
