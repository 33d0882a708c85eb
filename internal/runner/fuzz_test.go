package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenCheckpoint feeds OpenCheckpoint arbitrary files. The seed
// corpus in testdata/fuzz/FuzzOpenCheckpoint covers complete stores,
// torn and corrupt lines, and entries shaped like the multiplexer's
// results. OpenCheckpoint must never panic. What it accepts must survive
// a round trip: it trims the file to the whole lines it loaded, one more
// entry appends cleanly, and reopening restores every entry unchanged.
func FuzzOpenCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		loaded := c.entries
		trimmed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, trimmed) || (len(trimmed) > 0 && trimmed[len(trimmed)-1] != '\n') {
			t.Fatalf("trimmed file %q is not a whole-line prefix of %q", trimmed, data)
		}
		const key = "fuzz:0"
		if err := c.put(key, []float64{1.5, 0}); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = OpenCheckpoint(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer c.Close()
		want := len(loaded)
		if _, ok := loaded[key]; !ok {
			want++
		}
		if len(c.entries) != want {
			t.Fatalf("reopen restored %d entries, want %d", len(c.entries), want)
		}
		for k, v := range loaded {
			if k != key && !bytes.Equal(c.entries[k], v) {
				t.Fatalf("entry %q: reopened %s, want %s", k, c.entries[k], v)
			}
		}
		var got []float64
		if ok, err := c.lookup(key, &got); !ok || err != nil || len(got) != 2 || got[0] != 1.5 {
			t.Fatalf("appended entry: %v (found %v, err %v)", got, ok, err)
		}
	})
}
