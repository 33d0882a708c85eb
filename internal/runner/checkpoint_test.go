package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointResumeAfterTruncationAtEveryByte cuts a small checkpoint
// at every byte offset, as a kill mid-write would, then resumes: reopen,
// re-put whatever did not survive, reopen again. Every entry must come
// back with its value, and the file must stay pure newline-terminated
// JSON — a cut that lands just before a final newline must not leave a
// NUL pad or glue the next append onto the torn line.
func TestCheckpointResumeAfterTruncationAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"a", "b", "c"}
	full := filepath.Join(dir, "full.jsonl")
	c, err := OpenCheckpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := c.put(k, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%03d.jsonl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		for i, k := range keys {
			var v int
			ok, err := c.lookup(k, &v)
			if err != nil {
				t.Fatalf("cut %d: lookup %s: %v", cut, k, err)
			}
			if ok && v != i+1 {
				t.Fatalf("cut %d: %s = %d, want %d", cut, k, v, i+1)
			}
			if !ok {
				if err := c.put(k, i+1); err != nil {
					t.Fatalf("cut %d: put %s: %v", cut, k, err)
				}
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		c, err = OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		for i, k := range keys {
			var v int
			if ok, err := c.lookup(k, &v); err != nil || !ok || v != i+1 {
				t.Errorf("cut %d: after resume %s = %d (found %v, err %v), want %d", cut, k, v, ok, err, i+1)
			}
		}
		c.Close()

		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(got, []byte("\n")) {
			t.Errorf("cut %d: resumed file does not end in a newline: %q", cut, got)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n")) {
			var e checkpointLine
			if err := json.Unmarshal(line, &e); err != nil || e.K == "" {
				t.Errorf("cut %d: resumed file has a bad line %q (%v)", cut, line, err)
			}
		}
	}
}
