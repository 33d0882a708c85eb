// Package runner is the experiment-orchestration engine: it fans the
// replications of a simulation job out over a bounded worker pool while
// guaranteeing that the results are bit-identical to a serial run.
//
// Three properties make parallel replications safe for the paper's
// statistics:
//
//  1. Deterministic seeding. The seed of replication i of a job is a
//     splitmix64 hash of (master seed, job ID, i) — a pure function, so
//     results do not depend on worker count or scheduling order.
//  2. Cancellation and fail-fast. Run observes its context and aborts all
//     running replications as soon as one fails or the caller cancels.
//  3. Checkpointing. With a Checkpoint attached, every finished
//     replication is persisted keyed by (job fingerprint, rep index); an
//     interrupted full-scale run resumes instead of restarting.
//
// The engine's progress counters (jobs, replications done, work units such
// as simulated frames) are registry-backed telemetry metrics; Stats remains
// the snapshot view over them, and an optional periodic logger renders it.
// New engines record into a private registry so concurrently-running
// engines (e.g. in tests) stay independent; CLIs pass telemetry.Default via
// NewWithRegistry so the counters surface in run manifests.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seed"
	"repro/internal/telemetry"
	"repro/internal/telemetry/prof"
	"repro/internal/trace"
)

// Spec identifies one job: a batch of independent replications of the same
// experiment configuration.
type Spec struct {
	// ID names the job and enters the per-replication seed derivation —
	// two jobs with different IDs draw disjoint randomness from the same
	// master seed. It should be stable but need not encode every
	// parameter.
	ID string
	// Reps is the number of replications (the paper runs 60).
	Reps int
	// MasterSeed is the experiment's master seed. Replication i runs with
	// seed.DeriveString(MasterSeed, ID, i).
	MasterSeed int64
	// Fingerprint keys checkpoint entries. It must change whenever any
	// parameter that affects results changes (model, frames, N, c,
	// buffers, seed, ...); stale entries would otherwise be replayed into
	// a different experiment. Empty means "ID + MasterSeed".
	//
	// Reps is not part of the key: replication i's seed and result do not
	// depend on how many replications the job has, so a run can grow from
	// 10 to 60 replications through one checkpoint and re-run only the
	// new ones. A job function must not read the replication count.
	Fingerprint string
}

func (s Spec) fingerprint() string {
	fp := s.Fingerprint
	if fp == "" {
		fp = s.ID
	}
	return fmt.Sprintf("%s|seed=%d", fp, s.MasterSeed)
}

// Rep hands one replication its identity and a progress hook.
type Rep struct {
	// Index is the replication number in [0, Spec.Reps).
	Index int
	// Seed is the deterministically derived replication seed.
	Seed int64
	eng  *Engine
}

// AddUnits reports completed work units (e.g. simulated frames) to the
// engine's progress counters. Safe to call from any goroutine; a nil
// engine (zero Rep) is a no-op so job functions can be tested directly.
func (r Rep) AddUnits(n int64) {
	if r.eng != nil {
		r.eng.units.Add(n)
	}
}

// Engine owns the worker pool, progress counters and optional checkpoint
// shared by a sequence of jobs. The zero value is not usable; call New.
type Engine struct {
	workers    int
	checkpoint *Checkpoint

	start     time.Time
	startOnce sync.Once

	// Progress counters are registry-backed telemetry metrics (atomic
	// adds on the hot path, exposable over HTTP); Stats() is a view over
	// them.
	reg                 *telemetry.Registry
	jobs, jobsDone      *telemetry.Counter
	repsTotal, repsDone *telemetry.Counter
	repsResumed         *telemetry.Counter
	units               *telemetry.Counter

	logMu   sync.Mutex
	logStop chan struct{}
}

// New builds an engine with the given parallelism, recording progress into
// a fresh private telemetry registry. workers ≤ 0 selects
// runtime.NumCPU(); workers = 1 is the serial path.
func New(workers int) *Engine {
	return NewWithRegistry(workers, nil)
}

// NewWithRegistry builds an engine that records its progress counters in
// reg — pass telemetry.Default to surface them in a process's run
// manifest. A nil reg gets a private registry. Two engines
// sharing one registry share (sum into) the same counters.
func NewWithRegistry(workers int, reg *telemetry.Registry) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Engine{
		workers:     workers,
		reg:         reg,
		jobs:        reg.Counter("runner_jobs_total"),
		jobsDone:    reg.Counter("runner_jobs_done_total"),
		repsTotal:   reg.Counter("runner_reps_total"),
		repsDone:    reg.Counter("runner_reps_done_total"),
		repsResumed: reg.Counter("runner_reps_resumed_total"),
		units:       reg.Counter("runner_units_total"),
	}
}

// Workers reports the engine's parallelism.
func (e *Engine) Workers() int { return e.workers }

// Registry returns the telemetry registry the engine records into.
func (e *Engine) Registry() *telemetry.Registry { return e.reg }

// SetCheckpoint attaches a checkpoint store; completed replications are
// persisted to it and replayed on the next run. Call before Run.
func (e *Engine) SetCheckpoint(c *Checkpoint) { e.checkpoint = c }

// Stats is a consistent-enough snapshot of the engine's progress counters
// (each counter is read atomically; the set is not fenced, which is fine
// for observability).
type Stats struct {
	Workers     int
	Jobs        int64         // jobs submitted
	JobsDone    int64         // jobs fully completed
	RepsTotal   int64         // replications submitted across all jobs
	RepsDone    int64         // replications finished (incl. resumed)
	RepsResumed int64         // replications satisfied from the checkpoint
	Units       int64         // work units reported via Rep.AddUnits
	Elapsed     time.Duration // since the first Run call
	ETA         time.Duration // Elapsed-scaled estimate; 0 until RepsDone>RepsResumed
}

func (s Stats) String() string {
	// A finished batch reads "done" — never "?" or a stale extrapolation.
	eta := "?"
	switch {
	case s.RepsTotal > 0 && s.RepsDone >= s.RepsTotal:
		eta = "done"
	case s.ETA > 0:
		eta = s.ETA.Round(time.Second).String()
	}
	return fmt.Sprintf("runner: %d/%d reps (%d resumed), %d jobs done, %d units, elapsed %s, eta %s",
		s.RepsDone, s.RepsTotal, s.RepsResumed, s.JobsDone, s.Units,
		s.Elapsed.Round(time.Second), eta)
}

// Stats returns a snapshot of the progress counters (a view over the
// engine's registry-backed telemetry metrics).
func (e *Engine) Stats() Stats {
	st := Stats{
		Workers:     e.workers,
		Jobs:        e.jobs.Value(),
		JobsDone:    e.jobsDone.Value(),
		RepsTotal:   e.repsTotal.Value(),
		RepsDone:    e.repsDone.Value(),
		RepsResumed: e.repsResumed.Value(),
		Units:       e.units.Value(),
	}
	if !e.start.IsZero() {
		st.Elapsed = time.Since(e.start)
	}
	// ETA from fresh (non-resumed) replications only: resumed reps are
	// free, so scaling elapsed time by them would be wildly optimistic.
	fresh := st.RepsDone - st.RepsResumed
	remaining := st.RepsTotal - st.RepsDone
	if fresh > 0 && remaining > 0 && st.Elapsed > 0 {
		st.ETA = time.Duration(float64(st.Elapsed) / float64(fresh) * float64(remaining))
	}
	return st
}

// LogProgress starts a goroutine that writes a Stats line to w every
// interval until the returned stop function is called. A nil w logs
// through telemetry.Log at info level, so progress obeys the CLIs'
// -quiet/-v flags like every other human-readable line. Stopping flushes
// one final Stats line (when any work ran) so runs shorter than the
// interval still report their totals instead of finishing silently.
func (e *Engine) LogProgress(interval time.Duration, w io.Writer) (stop func()) {
	if w == nil {
		w = telemetry.Log.Writer(telemetry.LevelInfo)
	}
	e.logMu.Lock()
	defer e.logMu.Unlock()
	if e.logStop != nil {
		return func() {} // already logging
	}
	done := make(chan struct{})
	e.logStop = done
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, e.Stats().String())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			e.logMu.Lock()
			e.logStop = nil
			e.logMu.Unlock()
			if st := e.Stats(); st.RepsTotal > 0 {
				fmt.Fprintln(w, st.String())
			}
		})
	}
}

// Run executes spec.Reps replications of fn on the engine's worker pool
// and returns their results ordered by replication index. fn must be a
// pure function of (ctx, rep) — in particular all randomness must come
// from rep.Seed — which makes the output independent of worker count.
//
// The first error cancels every other replication and is returned; a
// cancelled context returns context.Cause(ctx). With a checkpoint
// attached, results of type T must round-trip through encoding/json;
// previously completed replications are restored without re-running fn.
func Run[T any](ctx context.Context, e *Engine, spec Spec, fn func(ctx context.Context, r Rep) (T, error)) ([]T, error) {
	if e == nil {
		return nil, fmt.Errorf("runner: nil engine")
	}
	if spec.Reps < 1 {
		return nil, fmt.Errorf("runner: job %q reps = %d must be ≥ 1", spec.ID, spec.Reps)
	}
	if fn == nil {
		return nil, fmt.Errorf("runner: job %q has nil function", spec.ID)
	}
	e.startOnce.Do(func() { e.start = time.Now() })
	e.jobs.Add(1)
	e.repsTotal.Add(int64(spec.Reps))

	results := make([]T, spec.Reps)
	fp := spec.fingerprint()

	// Restore checkpointed replications and collect the rest.
	pending := make([]int, 0, spec.Reps)
	for i := 0; i < spec.Reps; i++ {
		if e.checkpoint != nil {
			ok, err := e.checkpoint.lookup(repKey(fp, i), &results[i])
			if err != nil {
				return nil, fmt.Errorf("runner: job %q rep %d: corrupt checkpoint entry: %w", spec.ID, i, err)
			}
			if ok {
				e.repsResumed.Add(1)
				e.repsDone.Add(1)
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		ctx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)

		workers := e.workers
		if workers > len(pending) {
			workers = len(pending)
		}
		idxCh := make(chan int)
		var wg sync.WaitGroup
		var firstErr atomic.Pointer[error]
		fail := func(err error) {
			if firstErr.CompareAndSwap(nil, &err) {
				cancel(err)
			}
		}
		// Each replication runs under a child span of whatever span the
		// caller carried in ctx, placed on the worker's own trace lane so
		// concurrent replications render side by side. Spans are
		// observational — seeds are derived exactly as before.
		parentSpan := trace.FromContext(ctx)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				// Per-lane progress surfaces worker balance (figbench's
				// runner.lane_imbalance reads it): a lane whose counter
				// stalls while siblings advance is a starved or wedged
				// worker. The handle is fetched once per worker, not per
				// replication.
				laneStr := strconv.Itoa(lane)
				laneDone := e.reg.Counter("runner_lane_reps_done_total",
					telemetry.L("lane", laneStr))
				// The same lane string labels the worker's CPU samples:
				// every replication runs under prof.Do, so profiles
				// attribute hot paths to the coordinates stacked on ctx by
				// the drivers (figure, model, sweep point) plus this lane.
				laneLabels := prof.Labels{Lane: laneStr}
				for i := range idxCh {
					if ctx.Err() != nil {
						return
					}
					rep := Rep{
						Index: i,
						Seed:  seed.DeriveString(spec.MasterSeed, spec.ID, uint64(i)),
						eng:   e,
					}
					sp := parentSpan.Child("replication",
						trace.Int("rep", i), trace.Int64("seed", rep.Seed)).OnLane(lane)
					var res T
					var err error
					prof.Do(trace.ContextWith(ctx, sp), laneLabels, func(repCtx context.Context) {
						res, err = fn(repCtx, rep)
					})
					sp.End()
					if err != nil {
						fail(fmt.Errorf("runner: job %q rep %d: %w", spec.ID, i, err))
						return
					}
					results[i] = res
					e.repsDone.Add(1)
					laneDone.Add(1)
					if e.checkpoint != nil {
						if err := e.checkpoint.put(repKey(fp, i), res); err != nil {
							fail(fmt.Errorf("runner: job %q rep %d: checkpoint: %w", spec.ID, i, err))
							return
						}
					}
				}
			}(w + 1)
		}
	feed:
		for _, i := range pending {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(idxCh)
		wg.Wait()

		if errp := firstErr.Load(); errp != nil {
			return nil, *errp
		}
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}

	e.jobsDone.Add(1)
	return results, nil
}

func repKey(fingerprint string, rep int) string {
	// The fingerprint is hashed so checkpoint keys stay short and opaque
	// regardless of how much configuration the caller encodes in it.
	return fmt.Sprintf("%016x:%d", hashString(fingerprint), rep)
}

func hashString(s string) uint64 {
	// FNV-1a, finalized through the splitmix64 mixer for avalanche.
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return seed.Mix(h)
}
