// Package obs is the command-line glue between the flight recorder
// (internal/telemetry/flight), the SLO engine (internal/telemetry/slo)
// and the whole-run CPU profile (internal/telemetry/prof): one flag set,
// one Start call, one Finish call, shared by every CLI so `-flight`,
// `-flight-interval`, `-slo` and `-cpuprofile` mean the same thing in
// repro and atmsim.
//
// The packages stay decoupled — flight knows nothing of SLO rules or
// profiles, slo knows nothing of recording cadence — and meet only
// here, through the recorder's hooks: each snapshot is fed to the engine
// as it is taken (OnFrame), so breaches increment slo_* counters online
// (visible on /metrics mid-run) rather than in a post-hoc replay, and
// the runtime/metrics bridge is polled just before each scrape
// (BeforeSnapshot), so every frame carries fresh go_* runtime-health
// metrics for both the log and the SLO rules.
//
// Typical wiring:
//
//	obsFlags := obs.AddFlags()          // before flag.Parse
//	flag.Parse()
//	sess, err := obsFlags.Start(telemetry.Default, "mytool")
//	...
//	telemetry.Serve(addr, reg, sess.Routes()...)   // mounts /vars/history
//	...
//	if !sess.Finish() { os.Exit(3) }    // stop, log verdict, gate exit
//
// A CLI that exits early (a fatal error, an interrupt) calls
// sess.StopProfile before os.Exit, so the CPU profile is still written.
// Every method on *Session is nil-safe, so callers need no "is
// observability on" branches: a nil session routes nothing and finishes
// clean.
package obs

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flight"
	"repro/internal/telemetry/prof"
	"repro/internal/telemetry/slo"
)

// Flags holds the shared observability flag values. Zero value = off.
type Flags struct {
	// Path is the -flight flag: the JSONL flight-log destination.
	Path string
	// Interval is the -flight-interval flag: the snapshot cadence.
	Interval time.Duration
	// Rules is the -slo flag: a semicolon-separated slo.ParseList input.
	Rules string
	// CPUProfile is the -cpuprofile flag: the whole-run CPU profile
	// destination.
	CPUProfile string
}

// sloExample is the -slo usage example. It uses only value() rules on
// metrics repro registers, so it passes on any clean run, however short:
// a quantile rule on a metric the run never observes fails the verdict.
const sloExample = "value(conv_nonfinite_total) == 0; value(mux_cells_lost_total) within [0, 1e6]"

// AddFlags registers -flight, -flight-interval, -slo and -cpuprofile on
// the default flag set and returns the value holder. Call before
// flag.Parse.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Path, "flight", "", "record a delta-encoded JSONL flight log of periodic metric snapshots to this file (replay with obsreport); empty = off")
	flag.DurationVar(&f.Interval, "flight-interval", flight.DefaultInterval, "flight recorder snapshot cadence (min 10ms)")
	flag.StringVar(&f.Rules, "slo", "", "semicolon-separated SLO rules evaluated against each snapshot, e.g. '"+sloExample+"'; any breach fails the run")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a whole-run CPU profile, labelled by figure/sweep_point/model/path/lane, to this file (read with go tool pprof); empty = off")
	return f
}

// Session is a live recorder (always) plus an SLO engine (with -slo) and
// a CPU profile (with -cpuprofile). A nil *Session is valid and inert.
type Session struct {
	Rec *flight.Recorder
	Eng *slo.Engine // nil without -slo

	path    string
	cpuPath string
	stopCPU func() error // nil without -cpuprofile, or once stopped
}

// Start launches the recorder — and the online SLO evaluation when rules
// were given, and the CPU profile when a file was given — against reg.
// Returns (nil, nil) when all flags are off: observability not
// requested. SLO rules or a CPU profile without a -flight path are valid
// (the recorder then keeps only its in-memory ring). Any session
// also attaches the runtime/metrics bridge, so every frame — and every
// SLO evaluation — sees fresh go_* runtime-health metrics.
func (f *Flags) Start(reg *telemetry.Registry, tool string) (*Session, error) {
	if f == nil || (f.Path == "" && f.Rules == "" && f.CPUProfile == "") {
		return nil, nil
	}
	s := &Session{path: f.Path, cpuPath: f.CPUProfile}
	if f.Rules != "" {
		rules, err := slo.ParseList(f.Rules)
		if err != nil {
			return nil, fmt.Errorf("-slo: %w", err)
		}
		s.Eng = slo.NewEngine(reg, rules)
	}
	opts := flight.Options{
		Interval: f.Interval,
		Path:     f.Path,
		Tool:     tool,
	}
	if s.Eng != nil {
		eng := s.Eng
		opts.OnFrame = func(cur flight.Frame, prev *flight.Frame) {
			eng.Observe(cur.Metrics, cur.ElapsedSeconds)
		}
	}
	// The bridge polls on the recorder goroutine just before each scrape;
	// NewRuntimeBridge takes the baseline poll here so even frame 0
	// carries live gauges.
	bridge := prof.NewRuntimeBridge(reg)
	opts.BeforeSnapshot = bridge.Poll
	if f.CPUProfile != "" {
		stop, err := prof.StartCPUProfile(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		s.stopCPU = stop
	}
	rec, err := flight.Start(reg, opts)
	if err != nil {
		return nil, errors.Join(err, s.StopProfile())
	}
	s.Rec = rec
	telemetry.Log.Infof("flight recorder on (interval %v%s)", opts.Interval, describeSinks(f))
	return s, nil
}

// describeSinks renders the active sinks for the startup log line.
func describeSinks(f *Flags) string {
	out := ""
	if f.Path != "" {
		out += ", log " + f.Path
	}
	if f.Rules != "" {
		out += ", slo online"
	}
	if f.CPUProfile != "" {
		out += ", cpu profile " + f.CPUProfile
	}
	return out
}

// Routes returns the extra telemetry endpoint routes this session serves
// (the /vars/history ring). Splice into telemetry.Serve/Handler.
func (s *Session) Routes() []telemetry.Route {
	if s == nil {
		return nil
	}
	return []telemetry.Route{{Pattern: "/vars/history", Handler: s.Rec.HistoryHandler()}}
}

// StopProfile stops the CPU profile and closes its file, reporting a
// write or close error. Later calls, and calls on a session without
// -cpuprofile, do nothing.
func (s *Session) StopProfile() error {
	if s == nil || s.stopCPU == nil {
		return nil
	}
	stop := s.stopCPU
	s.stopCPU = nil
	return stop()
}

// Finish stops the recorder (recording the final frame) and the CPU
// profile, logs the SLO verdict, and reports whether the run is
// observability-clean: true when the log and the profile were written
// intact and no SLO rule failed. Callers gate their exit status on it.
func (s *Session) Finish() bool {
	if s == nil {
		return true
	}
	ok := true
	if err := s.Rec.Stop(); err != nil {
		telemetry.Log.Errorf("flight log %s: %v", s.path, err)
		ok = false
	} else if s.path != "" {
		telemetry.Log.Infof("flight log: %d frames in ring, log %s", s.Rec.Len(), s.path)
	}
	if err := s.StopProfile(); err != nil {
		telemetry.Log.Errorf("cpu profile %s: %v", s.cpuPath, err)
		ok = false
	} else if s.cpuPath != "" {
		telemetry.Log.Infof("cpu profile: %s (read with go tool pprof)", s.cpuPath)
	}
	if s.Eng != nil {
		v := s.Eng.Verdict()
		if v.Failed {
			telemetry.Log.Errorf("SLO verdict: FAIL\n%s", v.Summary())
			ok = false
		} else {
			telemetry.Log.Infof("SLO verdict: PASS\n%s", v.Summary())
		}
	}
	return ok
}
