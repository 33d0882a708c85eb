//go:build !race

package mux

const raceEnabled = false
