package obs

import (
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/mux"
	"repro/internal/telemetry"
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
	if !sess.Finish() {
		t.Error("nil session must finish clean")
	}
}
