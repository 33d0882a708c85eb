package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Checkpoint is an append-only JSON-lines store of completed replication
// results, keyed by (job fingerprint hash, replication index). Each line
// is {"k":"<key>","v":<result>}; appends are flushed per entry, so a
// killed run loses at most the line being written — a truncated final
// line is ignored on reload. One Checkpoint may serve many jobs and many
// workers concurrently.
type Checkpoint struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	entries map[string]json.RawMessage
}

type checkpointLine struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// OpenCheckpoint opens (creating if necessary) the checkpoint file at
// path and loads every complete entry already in it.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open checkpoint: %w", err)
	}
	c := &Checkpoint{path: path, f: f, entries: make(map[string]json.RawMessage)}
	// Only newline-terminated lines are complete: a final line without
	// its newline is torn (even if it happens to parse) and is dropped, so
	// the truncation below never extends the file and the next append
	// starts a fresh line.
	r := bufio.NewReader(f)
	var valid int64
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				f.Close()
				return nil, fmt.Errorf("runner: read checkpoint: %w", err)
			}
			break
		}
		var e checkpointLine
		if err := json.Unmarshal(line, &e); err != nil || e.K == "" {
			// A corrupt line from an interrupted run; everything after
			// it is unreachable, so stop and truncate to the last valid
			// entry.
			break
		}
		c.entries[e.K] = e.V
		valid += int64(len(line))
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: trim checkpoint: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: seek checkpoint: %w", err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// Len reports the number of stored replication results.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Path reports the backing file.
func (c *Checkpoint) Path() string { return c.path }

// Close flushes and closes the backing file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	ferr := c.w.Flush()
	cerr := c.f.Close()
	c.f, c.w = nil, nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// lookup decodes the stored result for key into out, reporting whether an
// entry existed.
func (c *Checkpoint) lookup(key string, out any) (bool, error) {
	c.mu.Lock()
	raw, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, err
	}
	return true, nil
}

// put stores a result and appends it durably to the backing file.
func (c *Checkpoint) put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line, err := json.Marshal(checkpointLine{K: key, V: raw})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("runner: checkpoint %s is closed", c.path)
	}
	c.entries[key] = raw
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}
