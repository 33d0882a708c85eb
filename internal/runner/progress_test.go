package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// Stopping the progress logger must flush one final Stats line, so runs
// shorter than the log interval still report their totals.
func TestLogProgressFinalFlush(t *testing.T) {
	e := New(2)
	_, err := Run(context.Background(), e, Spec{ID: "flush", Reps: 3, MasterSeed: 1},
		func(ctx context.Context, r Rep) (int, error) {
			r.AddUnits(10)
			return r.Index, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// An hour-long interval guarantees the ticker never fires; any output
	// must come from the stop flush.
	stop := e.LogProgress(time.Hour, &buf)
	stop()
	out := buf.String()
	if !strings.Contains(out, "3/3 reps") {
		t.Errorf("stop did not flush a final stats line; got %q", out)
	}
	if !strings.Contains(out, "eta done") {
		t.Errorf("final line should read \"eta done\"; got %q", out)
	}
	// Idempotent: a second stop must not write again.
	n := buf.Len()
	stop()
	if buf.Len() != n {
		t.Error("second stop() wrote another line")
	}
}

// An engine that never ran anything must stay silent on stop — no noise
// from engines constructed but unused.
func TestLogProgressSilentWhenIdle(t *testing.T) {
	e := New(1)
	var buf bytes.Buffer
	stop := e.LogProgress(time.Hour, &buf)
	stop()
	if buf.Len() != 0 {
		t.Errorf("idle engine flushed %q on stop", buf.String())
	}
}

func TestStatsStringETA(t *testing.T) {
	done := Stats{RepsTotal: 60, RepsDone: 60, Elapsed: time.Minute}
	if s := done.String(); !strings.Contains(s, "eta done") {
		t.Errorf("completed stats = %q, want eta done", s)
	}
	running := Stats{RepsTotal: 60, RepsDone: 30, Elapsed: time.Minute, ETA: time.Minute}
	if s := running.String(); !strings.Contains(s, "eta 1m0s") {
		t.Errorf("mid-run stats = %q, want eta 1m0s", s)
	}
	fresh := Stats{RepsTotal: 60}
	if s := fresh.String(); !strings.Contains(s, "eta ?") {
		t.Errorf("fresh stats = %q, want eta ?", s)
	}
}

// The Stats view must read through to the registry-backed counters: an
// engine sharing a caller-supplied registry surfaces the same numbers on
// both APIs.
func TestStatsIsRegistryView(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewWithRegistry(2, reg)
	if e.Registry() != reg {
		t.Fatal("Registry() does not return the supplied registry")
	}
	_, err := Run(context.Background(), e, Spec{ID: "view", Reps: 5, MasterSeed: 9},
		func(ctx context.Context, r Rep) (int, error) {
			r.AddUnits(7)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.RepsDone != 5 || st.Units != 35 || st.JobsDone != 1 {
		t.Fatalf("stats = %+v, want 5 reps, 35 units, 1 job", st)
	}
	byName := map[string]int64{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = int64(s.Value)
	}
	if byName["runner_reps_done_total"] != st.RepsDone ||
		byName["runner_units_total"] != st.Units ||
		byName["runner_jobs_done_total"] != st.JobsDone {
		t.Errorf("registry snapshot %v disagrees with stats %+v", byName, st)
	}
}

// Two engines must not share counters unless they share a registry.
func TestEnginesIsolatedByDefault(t *testing.T) {
	a, b := New(1), New(1)
	_, err := Run(context.Background(), a, Spec{ID: "a", Reps: 2, MasterSeed: 1},
		func(ctx context.Context, r Rep) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.RepsDone != 0 || st.Jobs != 0 {
		t.Errorf("engine b saw engine a's work: %+v", st)
	}
}
