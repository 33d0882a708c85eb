// Package rng exercises the rngsource analyzer: RNG construction and
// global draws outside internal/randx are violations; methods on an
// already-built *rand.Rand are not.
package rng

import "math/rand"

func Build(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "rand.New constructs an RNG outside internal/randx; derive a seed with internal/seed and call randx.NewRand or randx.NewStream" "rand.NewSource constructs an RNG"
}

func Global() int {
	return rand.Intn(10) // want "rand.Intn draws from the global RNG"
}

func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "rand.Shuffle draws from the global RNG"
}

// Methods on a handed-in generator are the sanctioned pattern.
func Draw(r *rand.Rand) float64 {
	return r.Float64()
}
