package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadManifest feeds ReadManifest arbitrary files. The seed corpus in
// testdata/fuzz/FuzzReadManifest covers a complete run, an interrupted
// one, a torn final line, a missing or newer header and unknown line
// types. ReadManifest must never panic, and a manifest it accepts must
// survive a round trip: written back through ManifestWriter and read
// again, it encodes to the same JSON. (Encoding both sides makes a nil
// and an empty omitempty field compare equal, as the file format does.)
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.jsonl")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.jsonl")
		file, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		w := &ManifestWriter{f: file, bw: bufio.NewWriter(file)}
		h := m.Header
		if err := w.write(manifestLine{Type: "header", Header: &h}); err != nil {
			t.Fatal(err)
		}
		for _, s := range m.Stages {
			if err := w.Stage(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range m.Results {
			if err := w.Result(r); err != nil {
				t.Fatal(err)
			}
		}
		if m.Summary != nil {
			err = w.Close(*m.Summary)
		} else {
			err = file.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		again, err := ReadManifest(out)
		if err != nil {
			t.Fatalf("re-reading a written manifest: %v", err)
		}
		a, errA := json.Marshal(m)
		b, errB := json.Marshal(again)
		if errA != nil || errB != nil {
			t.Fatalf("encoding manifests: %v, %v", errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the manifest:\nread    %s\nwritten %s", a, b)
		}
	})
}
