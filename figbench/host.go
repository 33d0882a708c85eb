package main

import (
	"os"
	"runtime"
	"strings"

	"repro/internal/telemetry"
)

// hostInfo stamps a record with the machine and source it was measured
// on, so a comparison across machines is flagged rather than gated.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func currentHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
	}
	// run.sh builds this command and repro from one checkout with one
	// toolchain, so this binary's VCS stamp is repro's.
	h.Revision, h.Dirty = strings.CutSuffix(telemetry.GitRevision(), "+dirty")
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// sameMachine reports whether two records were measured on the same kind
// of machine with the same toolchain; the revisions may differ.
func (h hostInfo) sameMachine(o hostInfo) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.Kernel == o.Kernel && h.GoVersion == o.GoVersion
}
