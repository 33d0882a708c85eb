package prof

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain gates the package on goroutine leaks: nothing a test starts
// may outlive it.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
