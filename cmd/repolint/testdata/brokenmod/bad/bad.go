// Package bad violates every repolint invariant exactly once, so the
// multichecker test can assert each analyzer reports through the CLI.
package bad

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof" // second pprofimport violation (runtime/pprof outside prof)
	"time"

	_ "net/http/pprof" // pprofimport violation
)

// Jitter is an rngsource violation (global RNG draw) and a walltime
// violation (clock read in a deterministic package).
func Jitter() time.Duration {
	return time.Since(time.Now().Add(-time.Duration(rand.Intn(10))))
}

// Dump is a maporder violation (output in iteration order) and a
// printguard violation (fmt.Println in library code).
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Same is a floateq violation.
func Same(a, b float64) bool {
	return a == b
}

// Label uses the runtime/pprof import flagged above.
func Label(ctx context.Context) context.Context {
	return pprof.WithLabels(ctx, pprof.Labels("experiment", "x"))
}

// Model mimics the traffic generator constructor contract so the
// seedflow sink detection fires on any NewGenerator(int64) method.
type Model struct{}

// NewGenerator matches the seed-consuming constructor shape.
func (Model) NewGenerator(seed int64) int64 { return seed }

// Hardcoded is a seedflow violation: a constant seed handed to a
// generator constructor in non-test, non-example code.
func Hardcoded() int64 {
	var m Model
	return m.NewGenerator(42)
}

// Stale carries an expired waiver: the date is in the past, so the
// waiver is itself a finding and no longer suppresses anything.
func Stale(a, b float64) bool {
	//lint:floateq expires=2020-01-01 long-lapsed exception
	return a != b
}
