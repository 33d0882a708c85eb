package mginf

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/traffic"
)

// TestFillPathPinned pins a short sample path bit for bit, so changes to
// the session bookkeeping provably leave every draw and every expiry
// unchanged.
func TestFillPathPinned(t *testing.T) {
	g := std(t).NewGenerator(1996).(traffic.BlockGenerator)
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, traffic.FillFrames(g, 3*4096)); err != nil {
		t.Fatal(err)
	}
	const want uint64 = 0xaac5e35252408689
	if got := h.Sum64(); got != want {
		t.Errorf("path hash = %#x, want %#x", got, want)
	}
}
