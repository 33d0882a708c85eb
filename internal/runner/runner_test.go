package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoJob records the seed it was handed; comparing runs at different
// worker counts proves seeds (and hence any simulation built on them)
// are independent of scheduling.
func echoJob(ctx context.Context, r Rep) (int64, error) {
	r.AddUnits(1)
	return r.Seed, nil
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := Spec{ID: "det", Reps: 64, MasterSeed: 1996}
	serial, err := Run(context.Background(), New(1), spec, echoJob)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.NumCPU(), 64} {
		parallel, err := Run(context.Background(), New(workers), spec, echoJob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
	// Seeds must be distinct across replications.
	seen := map[int64]bool{}
	for _, s := range serial {
		if seen[s] {
			t.Fatalf("duplicate replication seed %d", s)
		}
		seen[s] = true
	}
}

func TestRunSeedsIndependentOfJobID(t *testing.T) {
	a, err := Run(context.Background(), New(2), Spec{ID: "job-a", Reps: 8, MasterSeed: 5}, echoJob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), New(2), Spec{ID: "job-b", Reps: 8, MasterSeed: 5}, echoJob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("rep %d: jobs with different IDs drew the same seed", i)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run[int](context.Background(), nil, Spec{ID: "x", Reps: 1},
		func(context.Context, Rep) (int, error) { return 0, nil }); err == nil {
		t.Error("nil engine should error")
	}
	e := New(2)
	if _, err := Run[int](context.Background(), e, Spec{ID: "x", Reps: 0},
		func(context.Context, Rep) (int, error) { return 0, nil }); err == nil {
		t.Error("reps = 0 should error")
	}
	if _, err := Run[int](context.Background(), e, Spec{ID: "x", Reps: 1}, nil); err == nil {
		t.Error("nil fn should error")
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once atomic.Bool
	go func() {
		<-started
		cancel()
	}()
	_, err := Run(ctx, New(4), Spec{ID: "cancel", Reps: 100, MasterSeed: 1},
		func(ctx context.Context, r Rep) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(30 * time.Second):
				return 0, errors.New("cancellation never arrived")
			}
		})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunFailFast fails rep 3 and holds every later rep until the
// failure cancels it, so the run cannot finish all its reps before the
// cancellation lands. Reps are fed in order, so rep 3 always reaches a
// worker, and at most one later rep per other worker starts. If the
// cancellation never comes, the first held rep gives up after 10 s and
// releases the rest, so a broken fail-fast fails the test, not hangs it.
func TestRunFailFast(t *testing.T) {
	const workers = 2
	boom := errors.New("boom")
	var calls atomic.Int64
	var uncancelled atomic.Bool
	_, err := Run(context.Background(), New(workers), Spec{ID: "fail", Reps: 1000, MasterSeed: 1},
		func(ctx context.Context, r Rep) (int, error) {
			calls.Add(1)
			switch {
			case r.Index == 3:
				return 0, boom
			case r.Index > 3 && !uncancelled.Load():
				select {
				case <-ctx.Done():
					return 0, context.Cause(ctx)
				case <-time.After(10 * time.Second):
					uncancelled.Store(true)
				}
			}
			return r.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if uncancelled.Load() {
		t.Fatal("a rep after the failure was never cancelled")
	}
	if n := calls.Load(); n > 4+(workers-1) {
		t.Fatalf("fail-fast did not stop the run early (%d calls)", n)
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	type res struct {
		Rep  int
		Seed int64
		CLR  float64
	}
	job := func(ctx context.Context, r Rep) (res, error) {
		return res{Rep: r.Index, Seed: r.Seed, CLR: float64(r.Seed%1000) / 1000}, nil
	}
	spec := Spec{ID: "ckpt", Reps: 20, MasterSeed: 7, Fingerprint: "model=Z^0.9|frames=100"}

	c1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(4)
	e1.SetCheckpoint(c1)
	first, err := Run(context.Background(), e1, spec, job)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run must restore every replication without calling the job.
	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != spec.Reps {
		t.Fatalf("reloaded %d entries, want %d", c2.Len(), spec.Reps)
	}
	e2 := New(4)
	e2.SetCheckpoint(c2)
	var reran atomic.Int64
	second, err := Run(context.Background(), e2, spec,
		func(ctx context.Context, r Rep) (res, error) {
			reran.Add(1)
			return job(ctx, r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := reran.Load(); n != 0 {
		t.Fatalf("resume re-ran %d replications, want 0", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("resumed results differ from original run")
	}
	st := e2.Stats()
	if st.RepsResumed != int64(spec.Reps) || st.RepsDone != int64(spec.Reps) {
		t.Fatalf("stats %+v: want all %d reps resumed", st, spec.Reps)
	}

	// A different fingerprint must not match the stored entries.
	other := spec
	other.Fingerprint = "model=Z^0.9|frames=200"
	e3 := New(4)
	e3.SetCheckpoint(c2)
	if _, err := Run(context.Background(), e3, other, job); err != nil {
		t.Fatal(err)
	}
	if e3.Stats().RepsResumed != 0 {
		t.Fatal("changed fingerprint replayed stale checkpoint entries")
	}
}

func TestCheckpointPartialAndTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	job := func(ctx context.Context, r Rep) (int64, error) { return r.Seed, nil }
	spec := Spec{ID: "partial", Reps: 10, MasterSeed: 3, Fingerprint: "torn-test"}

	// Complete only the first 4 replications, then simulate a crash by
	// appending a torn half-written line.
	c1, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(1)
	e1.SetCheckpoint(c1)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, runErr := Run(ctx, e1, spec, func(ctx context.Context, r Rep) (int64, error) {
		if calls.Add(1) == 4 {
			cancel() // interrupt after the 4th result is produced
		}
		return job(ctx, r)
	})
	cancel()
	if runErr == nil {
		t.Fatal("interrupted run returned nil error")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	done := c2.Len()
	if done < 1 || done > 5 {
		t.Fatalf("recovered %d entries, want the ~4 completed before interrupt", done)
	}
	e2 := New(4)
	e2.SetCheckpoint(c2)
	var reran atomic.Int64
	results, err := Run(context.Background(), e2, spec,
		func(ctx context.Context, r Rep) (int64, error) {
			reran.Add(1)
			return job(ctx, r)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != spec.Reps {
		t.Fatalf("got %d results, want %d", len(results), spec.Reps)
	}
	if got, want := int(reran.Load()), spec.Reps-done; got != want {
		t.Fatalf("resume re-ran %d reps, want %d", got, want)
	}
	if int(e2.Stats().RepsResumed) != done {
		t.Fatalf("stats resumed %d, want %d", e2.Stats().RepsResumed, done)
	}
	// Every result must equal the documented derivation regardless of
	// whether it came from the checkpoint or a fresh run.
	fresh, err := Run(context.Background(), New(1), spec, job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, fresh) {
		t.Fatal("mixed resumed/fresh results differ from a clean run")
	}
}

// TestCheckpointGrowsReps grows a job from 10 to 60 replications through
// one checkpoint: the grown run re-runs only the 50 new replications and
// equals a 60-replication run made in one go.
func TestCheckpointGrowsReps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	spec := Spec{ID: "grow", Reps: 10, MasterSeed: 11, Fingerprint: "grow-test"}
	c, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := New(2)
	e.SetCheckpoint(c)
	if _, err := Run(context.Background(), e, spec, echoJob); err != nil {
		t.Fatal(err)
	}
	spec.Reps = 60
	var ran atomic.Int64
	grown, err := Run(context.Background(), e, spec, func(ctx context.Context, r Rep) (int64, error) {
		ran.Add(1)
		return echoJob(ctx, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 50 {
		t.Fatalf("grown run ran %d replications, want the 50 new ones", n)
	}
	whole, err := Run(context.Background(), New(2), spec, echoJob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grown, whole) {
		t.Fatal("run grown through a checkpoint differs from one made in one go")
	}
}

func TestStatsCountersAndETA(t *testing.T) {
	e := New(2)
	if _, err := Run(context.Background(), e, Spec{ID: "stats", Reps: 6, MasterSeed: 2},
		func(ctx context.Context, r Rep) (int, error) {
			r.AddUnits(100)
			time.Sleep(time.Millisecond)
			return r.Index, nil
		}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Jobs != 1 || st.JobsDone != 1 {
		t.Fatalf("jobs %d/%d, want 1/1", st.JobsDone, st.Jobs)
	}
	if st.RepsTotal != 6 || st.RepsDone != 6 {
		t.Fatalf("reps %d/%d, want 6/6", st.RepsDone, st.RepsTotal)
	}
	if st.Units != 600 {
		t.Fatalf("units %d, want 600", st.Units)
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	if st.ETA != 0 {
		t.Fatalf("finished run has ETA %v, want 0", st.ETA)
	}
	if !strings.Contains(st.String(), "6/6 reps") {
		t.Fatalf("stats string %q missing progress", st.String())
	}
}

func TestLogProgressWritesAndStops(t *testing.T) {
	e := New(1)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stop := e.LogProgress(5*time.Millisecond, w)
	time.Sleep(40 * time.Millisecond)
	stop()
	stop() // idempotent
	w.Close()
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	if n == 0 {
		t.Fatal("progress logger wrote nothing")
	}
	if !strings.Contains(string(buf[:n]), "runner:") {
		t.Fatalf("log output %q missing stats line", buf[:n])
	}
}

func TestRunSequentialJobsShareEngine(t *testing.T) {
	// Figures run many models against one engine; counters must aggregate.
	e := New(4)
	for j := 0; j < 3; j++ {
		if _, err := Run(context.Background(), e,
			Spec{ID: fmt.Sprintf("job-%d", j), Reps: 5, MasterSeed: 9}, echoJob); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Jobs != 3 || st.JobsDone != 3 || st.RepsDone != 15 || st.Units != 15 {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
}
