package fgn

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/traffic"
)

// TestFillPathPinned pins a short sample path bit for bit, so changes to
// the synthesis scratch buffers provably leave every draw unchanged.
func TestFillPathPinned(t *testing.T) {
	m, err := NewModel(0.8, 500, 5000)
	if err != nil {
		t.Fatal(err)
	}
	m.BlockLen = 1024
	g := m.NewGenerator(1996).(traffic.BlockGenerator)
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, traffic.FillFrames(g, 3*4096)); err != nil {
		t.Fatal(err)
	}
	const want uint64 = 0xfcb1c0ce784d492a
	if got := h.Sum64(); got != want {
		t.Errorf("path hash = %#x, want %#x", got, want)
	}
}
