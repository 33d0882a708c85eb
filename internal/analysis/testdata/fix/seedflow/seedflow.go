// Package seedflow exercises the seed-provenance taint analyzer: seeds
// that flow from the sanctioned roots are clean, constants and other
// untracked sources are findings with the flow path in the message.
package seedflow

import (
	"fix/internal/randx"
	"fix/internal/seed"
	"fix/seedhelp"
)

// Config carries the master seed the way the real module's experiment
// configs do.
type Config struct {
	Seed int64
	N    int
}

// Model mimics the traffic.Model constructor contract: any one-int64
// NewGenerator method is a seedflow sink.
type Model struct{}

func (Model) NewGenerator(seed int64) int64 { return seed }

// FromParam is clean: the seed is a caller-supplied parameter.
func FromParam(s int64) {
	randx.NewRand(s)
}

// FromField is clean: tainted through a struct field named Seed.
func FromField(cfg Config) {
	r := randx.NewRand(cfg.Seed)
	var m Model
	// Draws from a seed-derived RNG stay derived (the Composite pattern).
	m.NewGenerator(r.Int63())
}

// FromDerive is clean: direct derivation call.
func FromDerive(cfg Config) {
	randx.NewRand(seed.Derive(cfg.Seed, 3))
}

// FromChildren is clean: ranging over derived child seeds.
func FromChildren(cfg Config) {
	for _, s := range seed.Children(cfg.Seed, cfg.N) {
		randx.NewRand(s)
	}
}

// StreamFromDerive is clean: NewStream is a sink like NewRand, and its
// draws stay derived.
func StreamFromDerive(cfg Config) {
	st := randx.NewStream(seed.Derive(cfg.Seed, 5))
	var m Model
	m.NewGenerator(st.Int63())
}

// ThroughHelperOK is clean: the derivation hides inside a cross-package
// helper whose body the analyzer resolves through the loader.
func ThroughHelperOK(cfg Config) {
	seeds := seedhelp.Spawn(cfg.Seed, cfg.N)
	randx.NewRand(seeds[0])
}

// localSplit is the same-package helper case.
func localSplit(parent int64) int64 {
	return seed.Derive(parent, 7)
}

// ThroughLocalHelperOK is clean: derivation through a same-package call.
func ThroughLocalHelperOK(cfg Config) {
	randx.NewRand(localSplit(cfg.Seed))
}

// Hardcoded is the canonical violation: a constant seed.
func Hardcoded() {
	randx.NewRand(1996) // want "constant 1996"
}

// StreamHardcoded seeds the concrete stream from a constant.
func StreamHardcoded() {
	randx.NewStream(1996) // want "seed argument to randx.NewStream is not data-flow-reachable from internal/seed: constant 1996"
}

// HardcodedVar launders the constant through a local variable; the flow
// path must surface both hops.
func HardcodedVar() {
	s := int64(4242)
	randx.NewRand(s) // want "constant 4242"
}

// ThroughHelperBad seeds from a helper that bottoms out in a constant
// one package over.
func ThroughHelperBad(cfg Config) {
	randx.NewRand(seedhelp.Stuck(cfg.Seed)) // want "constant 1996"
}

// RangeIndex uses the loop index as a seed: additive seeding, the exact
// correlated-streams bug the derivation tree exists to prevent.
func RangeIndex(cfg Config) {
	for i := range seed.Children(cfg.Seed, cfg.N) {
		var m Model
		m.NewGenerator(int64(i)) // want "range index"
	}
}

// ConstructorConstant feeds a generator constructor directly.
func ConstructorConstant() {
	var m Model
	m.NewGenerator(7) // want "constant 7"
}
