// Constant seeds are legal in _test.go files: the loader lints shipping
// code only, so nothing here may ever produce a finding.
package seedflow

import (
	"fix/internal/randx"
	"testing"
)

func TestConstantSeedAllowed(t *testing.T) {
	r := randx.NewRand(42)
	_ = randx.NewStream(42)
	var m Model
	m.NewGenerator(1)
	_ = r
}
