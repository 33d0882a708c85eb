package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// The zero Span and nil Tracer must be complete no-ops so instrumented
// code never branches on "is tracing on".
func TestDisabledIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Root("root", Int("i", 1))
	if sp.Active() {
		t.Fatal("span of nil tracer is active")
	}
	child := sp.Child("child").OnLane(3)
	child.SetAttrs(String("k", "v"))
	child.End()
	sp.End()
	if tr.Len() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	// FromContext on a bare context is the zero span.
	if got := FromContext(context.Background()); got.Active() {
		t.Fatal("bare context carries an active span")
	}
	// ContextWith of a zero span must not allocate a value context.
	ctx := context.Background()
	if ContextWith(ctx, Span{}) != ctx {
		t.Fatal("attaching the zero span changed the context")
	}
}

// TestDisabledSpanAllocatesNothing: the per-chunk call shape of the mux
// costs no allocation when tracing is off.
func TestDisabledSpanAllocatesNothing(t *testing.T) {
	frames := 4096 // above the runtime's preallocated small-integer boxes
	allocs := testing.AllocsPerRun(100, func() {
		sp := Span{}.Child("mux fill", Int("frames", frames))
		sp.SetAttrs(Float("share", 0.5), Int64("cells", int64(frames)))
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("zero Span Child/SetAttrs/End = %v allocations, want 0", allocs)
	}
}

func TestSpanTreeAndLanes(t *testing.T) {
	tr := New()
	root := tr.Root("fig8", String("figure", "8"))
	sweep := root.Child("sweep", String("model", "Z^0.9"))
	rep := sweep.Child("rep", Int("index", 2)).OnLane(1)
	chunk := rep.Child("fill")
	chunk.End()
	rep.End()
	sweep.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["sweep"].Parent != byName["fig8"].ID {
		t.Error("sweep is not a child of fig8")
	}
	if byName["rep"].Parent != byName["sweep"].ID {
		t.Error("rep is not a child of sweep")
	}
	if byName["fill"].Parent != byName["rep"].ID {
		t.Error("fill is not a child of rep")
	}
	if byName["fig8"].Lane != 0 || byName["sweep"].Lane != 0 {
		t.Error("orchestrator spans must stay on lane 0")
	}
	if byName["rep"].Lane != 1 {
		t.Errorf("rep lane = %d, want 1", byName["rep"].Lane)
	}
	if byName["fill"].Lane != 1 {
		t.Error("chunk span did not inherit its replication's lane")
	}
	for _, r := range recs {
		if r.End < r.Start {
			t.Errorf("span %s ends (%v) before it starts (%v)", r.Name, r.End, r.Start)
		}
	}
	if byName["fig8"].Start > byName["fill"].Start {
		t.Error("root starts after its grandchild")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New()
	sweep := tr.Root("sweep")
	ctx := ContextWith(context.Background(), sweep)
	got := FromContext(ctx)
	rep := got.Child("rep")
	rep.End()
	sweep.End()
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "rep" || recs[0].Parent != recs[1].ID {
		t.Errorf("span recovered from context lost its parent link: %+v", recs)
	}
}

// Concurrent End calls from parallel workers must be race-free and lose
// nothing (run under -race in CI).
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	root := tr.Root("root")
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := root.Child("rep", Int("i", i)).OnLane(w + 1)
				sp.Child("fill").End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got, want := tr.Len(), workers*each*2+1; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New()
	root := tr.Root("fig9")
	rep := root.Child("rep", Int("index", 0)).OnLane(2)
	rep.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	var complete, meta int
	var sawParent bool
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["name"] == "rep" {
				args := ev["args"].(map[string]any)
				if _, ok := args["parent_id"]; ok {
					sawParent = true
				}
				if ev["tid"].(float64) != 2 {
					t.Errorf("rep exported on tid %v, want lane 2", ev["tid"])
				}
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("exported %d complete events, want 2", complete)
	}
	if meta < 3 { // process_name + two thread_name tracks
		t.Errorf("exported %d metadata events, want ≥ 3", meta)
	}
	if !sawParent {
		t.Error("child event lost its parent_id arg")
	}
}
