//go:build !linux

package main

import "os"

// maxRSSMiB is not measured off Linux, where ru_maxrss units differ.
func maxRSSMiB(*os.ProcessState) float64 { return 0 }
