package obs

import (
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
)

// TestSLOExamplePasses runs the -slo usage example against a short
// simulation: the example a user copies from -h must pass on a clean run.
func TestSLOExamplePasses(t *testing.T) {
	f := &Flags{Rules: sloExample, Interval: 10 * time.Millisecond}
	sess, err := f.Start(telemetry.Default, "obs-test")
	if err != nil {
		t.Fatal(err)
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		sess.Finish()
		t.Fatal(err)
	}
	if _, err := mux.Run(mux.Config{Model: z, N: 2, C: 600, B: 10, Frames: 200, Seed: 1}); err != nil {
		sess.Finish()
		t.Fatal(err)
	}
	if !sess.Finish() {
		t.Fatalf("SLO example %q failed on a clean run:\n%s", sloExample, sess.Eng.Verdict().Summary())
	}
}

// TestNilSessionInert pins the nil-safety the CLIs rely on when every
// observability flag is off.
func TestNilSessionInert(t *testing.T) {
	sess, err := (&Flags{}).Start(telemetry.Default, "obs-test")
	if err != nil || sess != nil {
		t.Fatalf("Start with no flags = (%v, %v), want (nil, nil)", sess, err)
	}
	if r := sess.Routes(); r != nil {
		t.Errorf("nil session routes %v, want none", r)
	}
	if err := sess.StopProfile(); err != nil {
		t.Errorf("nil session StopProfile = %v, want nil", err)
	}
	if !sess.Finish() {
		t.Error("nil session must finish clean")
	}
}

// TestCPUProfileSession: -cpuprofile alone opens a session, and Finish
// leaves a non-empty gzipped profile of the labelled work it covered.
func TestCPUProfileSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	sess, err := (&Flags{CPUProfile: path}).Start(telemetry.Default, "obs-test")
	if err != nil {
		t.Fatal(err)
	}
	if sess == nil {
		t.Fatal("Start with only -cpuprofile returned a nil session")
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		sess.Finish()
		t.Fatal(err)
	}
	ctx := prof.WithLabels(context.Background(), prof.Labels{Figure: "obs-test"})
	if _, err := mux.Run(mux.Config{Model: z, N: 2, C: 600, B: 10, Frames: 20000, Seed: 1, Ctx: ctx}); err != nil {
		sess.Finish()
		t.Fatal(err)
	}
	if !sess.Finish() {
		t.Fatal("Finish reported a CPU profile error")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	n, err := io.Copy(io.Discard, zr)
	if err != nil || n == 0 {
		t.Fatalf("profile decompressed to %d bytes (err %v), want a non-empty profile", n, err)
	}
}

// TestCPUProfileAlreadyRunning: a second CPU profile is an error from
// Start, not a panic, and the first profile is unaffected.
func TestCPUProfileAlreadyRunning(t *testing.T) {
	dir := t.TempDir()
	first, err := (&Flags{CPUProfile: filepath.Join(dir, "a.pprof")}).Start(telemetry.Default, "obs-test")
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&Flags{CPUProfile: filepath.Join(dir, "b.pprof")}).Start(telemetry.Default, "obs-test")
	if err == nil {
		second.Finish()
		first.Finish()
		t.Fatal("Start succeeded while a CPU profile was already running")
	}
	if second != nil {
		t.Errorf("failed Start returned a session")
	}
	if !first.Finish() {
		t.Error("first profile did not finish clean")
	}
}
