package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// "X" (complete) events carry a start timestamp and duration in
// microseconds; "M" (metadata) events name the process and thread tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object form of a trace file; Perfetto and
// chrome://tracing both accept it.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports every completed span as Chrome trace-event JSON.
// Spans become complete ("X") events with pid 1 and tid = lane, so the
// orchestrator (figure and sweep spans, lane 0) and each replication
// worker render as separate named tracks; the parent link of every span is
// preserved in its args, keeping the figure → sweep → replication → chunk
// hierarchy recoverable by tooling. Events are sorted by start time, as
// the format recommends.
func (t *Tracer) WriteChrome(w io.Writer) error {
	recs := t.Records()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })

	lanes := map[int]bool{}
	events := make([]chromeEvent, 0, len(recs)+8)
	for _, r := range recs {
		args := make(map[string]any, len(r.Attrs)+2)
		for _, a := range r.Attrs {
			args[a.Key] = a.Value
		}
		args["span_id"] = r.ID
		if r.Parent != 0 {
			args["parent_id"] = r.Parent
		}
		lanes[r.Lane] = true
		events = append(events, chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Pid:  1,
			Tid:  r.Lane,
			Ts:   float64(r.Start) / float64(time.Microsecond),
			Dur:  float64(r.Dur()) / float64(time.Microsecond),
			Cat:  "run",
			Args: args,
		})
	}

	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "repro run"},
	}}
	laneIDs := make([]int, 0, len(lanes))
	for l := range lanes {
		laneIDs = append(laneIDs, l)
	}
	sort.Ints(laneIDs)
	for _, l := range laneIDs {
		name := "orchestrator"
		if l > 0 {
			name = fmt.Sprintf("worker %d", l)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	})
}

// WriteChromeFile writes the Chrome trace to path (truncating).
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", path, err)
	}
	err = t.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
