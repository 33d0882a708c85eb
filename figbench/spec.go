package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json at the repository root: the benchmark's command,
// its workloads, and every metric it reports with unit, direction and —
// for end-to-end metrics — the share of the baseline median by which the
// metric may worsen before a change counts as a regression. Names and
// units live only there; this package supplies how each value is
// measured.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads and decodes root/BENCHMARK.json, rejecting unknown keys.
func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric returns the end-to-end or per-layer metric called name.
func (s *spec) metric(name string) (specMetric, bool) {
	for _, ms := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}
