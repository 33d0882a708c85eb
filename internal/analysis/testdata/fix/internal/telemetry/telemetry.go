// Package telemetry stands in for the real internal/telemetry: it owns
// the leveled logger's stderr default, so printguard stays silent here.
package telemetry

import (
	"fmt"
	"os"
)

func Logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format, args...)
}
