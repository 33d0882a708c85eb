package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// ManifestSchemaVersion identifies the JSONL manifest schema. Bump when a
// line shape changes incompatibly; readers reject newer majors. Version 2
// replaced the conv records' "converged" boolean and "ess" with
// "outcome".
const ManifestSchemaVersion = 2

// A run manifest is a JSONL file written next to a run's -out artifacts:
// one self-describing JSON object per line, flushed as the run progresses
// so an interrupted run still leaves a valid (truncated) manifest. Line
// order is: exactly one header, then any number of stage and result lines
// interleaved in completion order, then at most one summary.
//
//	{"type":"header", ...}    run identity: tool, args, seed, config, VCS
//	{"type":"stage", ...}     one experiment stage: id, wall seconds, error
//	{"type":"result", ...}    one figure/table result: series with CI bounds
//	{"type":"summary", ...}   wall/CPU totals and the final metric snapshot
type manifestLine struct {
	Type    string          `json:"type"`
	Header  *ManifestHeader `json:"header,omitempty"`
	Stage   *StageRecord    `json:"stage,omitempty"`
	Result  *ResultRecord   `json:"result,omitempty"`
	Summary *RunSummary     `json:"summary,omitempty"`
}

// ManifestHeader identifies a run: what was executed, with which
// configuration, from which source revision.
type ManifestHeader struct {
	SchemaVersion int               `json:"schema_version"`
	Tool          string            `json:"tool"`
	Args          []string          `json:"args,omitempty"`
	Start         string            `json:"start"` // RFC3339Nano
	Seed          int64             `json:"seed"`
	GoVersion     string            `json:"go_version"`
	GitRevision   string            `json:"git_revision"`
	Host          string            `json:"host,omitempty"`
	Config        map[string]string `json:"config,omitempty"`
}

// StageRecord reports one completed experiment stage.
type StageRecord struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Err         string  `json:"err,omitempty"`
}

// SeriesRecord is one labelled curve of a result, with optional
// replication confidence bounds (Lo/Hi parallel to Y when present) — the
// "CLR ± CI" provenance that a rendered figure alone loses — and optional
// per-point convergence verdicts (Conv parallel to Y) from the diag
// layer, so a manifest records not just what was estimated but whether
// the estimate had statistically converged.
type SeriesRecord struct {
	Label string       `json:"label"`
	X     []float64    `json:"x"`
	Y     []float64    `json:"y"`
	Lo    []float64    `json:"lo,omitempty"`
	Hi    []float64    `json:"hi,omitempty"`
	Conv  []ConvRecord `json:"conv,omitempty"`
}

// ConvRecord is the manifest form of one point's convergence verdict.
// RelCI is the relative half-width of the point's 95% replication CI (the
// interval behind the series' Lo/Hi); −1 encodes "undefined" (fewer than
// two finite observations, or a zero mean) since JSON cannot carry ±Inf.
// Outcome is "converged", "unconverged" or "no_loss" (every replication
// exactly 0, none non-finite; N then bounds the per-replication loss
// probability by 1 − 0.05^{1/N} at 95%).
type ConvRecord struct {
	N         int     `json:"n"`
	NonFinite int     `json:"non_finite,omitempty"`
	RelCI     float64 `json:"rel_ci"`
	Outcome   string  `json:"outcome"`
}

// ResultRecord reports one figure/table panel produced by a stage.
type ResultRecord struct {
	Stage  string         `json:"stage"`
	ID     string         `json:"id"`
	Title  string         `json:"title,omitempty"`
	Series []SeriesRecord `json:"series,omitempty"`
}

// RunSummary closes a manifest with resource totals and the final state
// of the metrics registry.
type RunSummary struct {
	WallSeconds float64    `json:"wall_seconds"`
	CPUSeconds  float64    `json:"cpu_seconds"`
	End         string     `json:"end"` // RFC3339Nano
	Metrics     []Snapshot `json:"metrics,omitempty"`
}

// Manifest is the decoded form of a manifest file.
type Manifest struct {
	Header  ManifestHeader
	Stages  []StageRecord
	Results []ResultRecord
	Summary *RunSummary // nil when the run was interrupted before Close
}

// ManifestWriter appends manifest lines to a file, flushing after every
// line so the manifest is valid JSONL at any interruption point.
type ManifestWriter struct {
	f  *os.File
	bw *bufio.Writer
}

// CreateManifest creates (truncating) the manifest at path and writes the
// header line.
func CreateManifest(path string, h ManifestHeader) (*ManifestWriter, error) {
	h.SchemaVersion = ManifestSchemaVersion
	if h.GoVersion == "" {
		h.GoVersion = runtime.Version()
	}
	if h.GitRevision == "" {
		h.GitRevision = GitRevision()
	}
	if h.Host == "" {
		h.Host, _ = os.Hostname()
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create manifest: %w", err)
	}
	w := &ManifestWriter{f: f, bw: bufio.NewWriter(f)}
	if err := w.write(manifestLine{Type: "header", Header: &h}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *ManifestWriter) write(line manifestLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("telemetry: encode manifest line: %w", err)
	}
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("telemetry: write manifest: %w", err)
	}
	return w.bw.Flush()
}

// Stage records one completed stage.
func (w *ManifestWriter) Stage(s StageRecord) error {
	return w.write(manifestLine{Type: "stage", Stage: &s})
}

// Result records one produced result.
func (w *ManifestWriter) Result(r ResultRecord) error {
	return w.write(manifestLine{Type: "result", Result: &r})
}

// Close writes the summary line and closes the file.
func (w *ManifestWriter) Close(s RunSummary) error {
	err := w.write(manifestLine{Type: "summary", Summary: &s})
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadManifest decodes a manifest file. A missing summary (interrupted
// run) is not an error; a missing or incompatible header is.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open manifest: %w", err)
	}
	defer f.Close()
	var m Manifest
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // result lines can be long
	lineno := 0
	sawHeader := false
	for sc.Scan() {
		lineno++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line manifestLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("telemetry: manifest %s line %d: %w", path, lineno, err)
		}
		switch line.Type {
		case "header":
			if line.Header == nil {
				return nil, fmt.Errorf("telemetry: manifest %s line %d: empty header", path, lineno)
			}
			if line.Header.SchemaVersion > ManifestSchemaVersion {
				return nil, fmt.Errorf("telemetry: manifest %s: schema version %d newer than supported %d",
					path, line.Header.SchemaVersion, ManifestSchemaVersion)
			}
			m.Header = *line.Header
			sawHeader = true
		case "stage":
			if line.Stage != nil {
				m.Stages = append(m.Stages, *line.Stage)
			}
		case "result":
			if line.Result != nil {
				m.Results = append(m.Results, *line.Result)
			}
		case "summary":
			m.Summary = line.Summary
		default:
			// Unknown line types from future minor revisions are skipped.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read manifest %s: %w", path, err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("telemetry: manifest %s has no header line", path)
	}
	return &m, nil
}

// GitRevision reports the VCS revision baked into the binary by the Go
// toolchain ("unknown" outside a stamped build; a "+dirty" suffix marks
// uncommitted changes).
func GitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
