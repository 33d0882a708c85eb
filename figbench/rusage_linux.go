//go:build linux

package main

import (
	"os"
	"syscall"
)

// maxRSSMiB reads a finished process's peak resident set from its rusage;
// Linux reports ru_maxrss in KiB.
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
