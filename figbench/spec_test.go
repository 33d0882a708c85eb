package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// keysOf decodes one JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestBenchmarkSchema holds BENCHMARK.json to its required format: its
// exact keys, name and unit syntax, counts, bounds, and a time budget for
// the full set of runs; and holds this command to it — every workload and
// metric it names is implemented, and every per-layer prediction names
// real metrics and workloads.
func TestBenchmarkSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := keysOf(t, data), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("top-level keys %v, want %v", got, want)
	}
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(s); err != nil {
		t.Fatal(err)
	}

	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q: too long, absolute or leaving the repository", c)
		}
		if strings.Contains(c, "/") && !slices.ContainsFunc(s.Paths, func(p string) bool { return strings.HasPrefix(c, p+"/") }) {
			t.Errorf("command names %q outside paths %v", c, s.Paths)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", s.RunSeconds)
	}
	// A full measurement is 4 + 22 runs per workload plus two builds, and
	// must end within 3420 s. A run ends by run_seconds (figbench starts
	// no child that would overrun); allow 2 s per run for run.sh's cached build check
	// and 120 s per cold build (≈30 s measured on a 2-vCPU host).
	if runs := 4 + 22*len(s.Workloads); runs*(s.RunSeconds+2)+2*120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the 3420 s budget", runs, s.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	var rawWorkloads []json.RawMessage
	if err := json.Unmarshal(top["workloads"], &rawWorkloads); err != nil {
		t.Fatal(err)
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if got := keysOf(t, rawWorkloads[i]); !slices.Equal(got, []string{"name", "why"}) {
			t.Errorf("workload %s keys %v", w.Name, got)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for section, want := range map[string][]string{
		"end_to_end": {"better", "bound", "name", "unit"},
		"per_layer":  {"better", "name", "unit"},
	} {
		var raw []json.RawMessage
		if err := json.Unmarshal(top[section], &raw); err != nil {
			t.Fatal(err)
		}
		for _, r := range raw {
			if got := keysOf(t, r); !slices.Equal(got, want) {
				t.Errorf("%s metric %s has keys %v, want %v", section, bytes.TrimSpace(r), got, want)
			}
		}
	}
	var maxBound float64
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s better = %q", m.Name, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s bound %v, want (0, 0.25]", m.Name, *m.Bound)
		}
		maxBound = max(maxBound, *m.Bound)
	}
	setup, ok := s.metric("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil || *setup.Bound < maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better, with the largest bound: %+v", setup)
	}

	for _, m := range s.PerLayer {
		lm := perLayer[m.Name]
		for _, e := range lm.moves {
			if mm, ok := s.metric(e); !ok || mm.Bound == nil {
				t.Errorf("per-layer %s moves %q, not an end-to-end metric", m.Name, e)
			}
		}
		for _, w := range append(append([]string(nil), lm.on...), lm.unchanged...) {
			if !seen[w] || slices.IndexFunc(s.Workloads, func(sw specWorkload) bool { return sw.Name == w }) < 0 {
				t.Errorf("per-layer %s names workload %q, not in BENCHMARK.json", m.Name, w)
			}
		}
		if len(lm.moves) > 0 && len(lm.on) == 0 {
			t.Errorf("per-layer %s moves %v but names no workload it moves them on", m.Name, lm.moves)
		}
	}
}
