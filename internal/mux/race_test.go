//go:build race

package mux

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of Puts, so chunk-buffer refills make allocation counts
// vary from run to run.
const raceEnabled = true
