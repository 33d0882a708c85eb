//go:build race

package models

// raceEnabled reports a race-detector build. The generator oracle then
// runs its -short form: the detector slows frame generation severalfold.
const raceEnabled = true
