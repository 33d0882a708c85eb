package prof

import (
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// TestDoAppliesAndMergesLabels drives the real pprof label machinery:
// coordinates stacked with WithLabels upstream plus a Do at the
// innermost point must all be visible on the goroutine, and must be
// restored afterwards.
func TestDoAppliesAndMergesLabels(t *testing.T) {
	ctx := WithLabels(context.Background(), Labels{Figure: "fig8", Model: "L"})

	// Not yet applied: WithLabels only stages them on the context.
	if v, ok := pprof.Label(ctx, KeyFigure); !ok || v != "fig8" {
		t.Fatalf("ctx label figure = %q, %v; want fig8", v, ok)
	}

	ran := false
	Do(ctx, Labels{Lane: "3", Path: "chunked"}, func(ctx context.Context) {
		ran = true
		got := map[string]string{}
		pprof.ForLabels(ctx, func(k, v string) bool {
			got[k] = v
			return true
		})
		want := map[string]string{
			KeyFigure: "fig8", KeyModel: "L", KeyLane: "3", KeyPath: "chunked",
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("label %s = %q, want %q (all: %v)", k, got[k], v, got)
			}
		}
	})
	if !ran {
		t.Fatal("Do did not run f")
	}
}

// TestDoEmptyLabelsPassthrough: no fields set means no pprof machinery —
// the ctx is handed through unchanged.
func TestDoEmptyLabelsPassthrough(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	Do(ctx, Labels{}, func(got context.Context) {
		if got != ctx {
			t.Error("empty Labels should pass ctx through unchanged")
		}
	})
	Do(nil, Labels{}, func(got context.Context) {
		if got == nil {
			t.Error("nil ctx should become Background")
		}
	})
}

// TestPairsCoverKeys: every field of Labels maps onto a key in Keys, and
// empty fields are omitted.
func TestPairsCoverKeys(t *testing.T) {
	l := Labels{Figure: "f", SweepPoint: "s", Model: "m", Path: "p", Lane: "l"}
	p := l.pairs()
	if len(p) != 2*len(Keys) {
		t.Fatalf("full Labels yields %d pairs, want %d", len(p)/2, len(Keys))
	}
	seen := map[string]bool{}
	for i := 0; i < len(p); i += 2 {
		seen[p[i]] = true
		found := false
		for _, k := range Keys {
			if p[i] == k {
				found = true
			}
		}
		if !found {
			t.Errorf("pairs emitted key %q outside the fixed set %v", p[i], Keys)
		}
	}
	for _, k := range Keys {
		if !seen[k] {
			t.Errorf("key %q missing from full Labels pairs", k)
		}
	}
	if got := (Labels{Model: "V"}).pairs(); len(got) != 2 || got[0] != KeyModel {
		t.Errorf("partial Labels pairs = %v, want [model V]", got)
	}
}

// TestCPUProfileSession: StartCPUProfile and its stop function leave a
// non-empty gzipped profile of the labelled work they covered.
func TestCPUProfileSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	Do(context.Background(), Labels{Figure: "prof-test"}, func(context.Context) {
		for i := 1; i < 5_000_000; i++ {
			sum += 1 / float64(i)
		}
	})
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if sum == 0 {
		t.Fatal("work loop was skipped")
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
// StartCPUProfile, not a panic, and the first profile is unaffected.
func TestCPUProfileAlreadyRunning(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCPUProfile(filepath.Join(dir, "a.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := StartCPUProfile(filepath.Join(dir, "b.pprof"))
	if err == nil {
		second()
		stop()
		t.Fatal("StartCPUProfile succeeded while a CPU profile was already running")
	}
	if second != nil {
		t.Error("failed StartCPUProfile returned a stop function")
	}
	if _, err := os.Stat(filepath.Join(dir, "b.pprof")); !os.IsNotExist(err) {
		t.Errorf("failed StartCPUProfile left its file behind (stat err %v)", err)
	}
	if err := stop(); err != nil {
		t.Errorf("first profile did not stop clean: %v", err)
	}
}
