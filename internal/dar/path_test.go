package dar_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dar"
	"repro/internal/models"
	"repro/internal/traffic"
)

// zFit returns the DAR(p) fit to Z^0.975 that Figs 9 and 10 simulate.
func zFit(t *testing.T, p int) *dar.Process {
	t.Helper()
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	s, err := models.FitS(z, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFillPathPinned pins sample paths of the Z^0.975 DAR(1) and DAR(3)
// fits bit for bit, so changes to the uniform source or to the fill
// loop provably leave every draw unchanged. Each path is three full
// 4096-frame blocks and a ragged tail, filled in those pieces. The
// hashes are those of draw version dar.2 (one geometric run length per
// innovation); a change that moves them bumps Process.DrawVersion.
func TestFillPathPinned(t *testing.T) {
	for _, c := range []struct {
		p    int
		want uint64
	}{
		{1, 0x26af016ad68188e7},
		{3, 0x8cee6cccc5b8c601},
	} {
		s := zFit(t, c.p)
		if c.p == 1 && math.Abs(s.Rho()-0.82) > 0.01 {
			t.Fatalf("DAR(1) fit ρ = %v, want ≈ 0.82", s.Rho())
		}
		g := s.NewGenerator(1996).(traffic.BlockGenerator)
		h := fnv.New64a()
		for _, n := range []int{4096, 4096, 4096, 333} {
			if err := binary.Write(h, binary.LittleEndian, traffic.FillFrames(g, n)); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("DAR(%d) path hash = %#x, want %#x", c.p, got, c.want)
		}
	}
}

// TestFillMatchesNextFrame holds Fill to repeated NextFrame calls bit for
// bit at orders 1 to 3 and fill lengths 1, 7 and 4096, so the block path
// and the per-frame path consume the stream identically.
func TestFillMatchesNextFrame(t *testing.T) {
	for p := 1; p <= 3; p++ {
		s := zFit(t, p)
		for _, n := range []int{1, 7, 4096} {
			block := s.NewGenerator(7).(traffic.BlockGenerator)
			scalar := s.NewGenerator(7)
			dst := make([]float64, n)
			for round := 0; round < 3; round++ {
				block.Fill(dst)
				for i, got := range dst {
					want := scalar.NextFrame()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("DAR(%d) n=%d round %d frame %d: Fill %v, NextFrame %v", p, n, round, i, got, want)
					}
				}
			}
		}
	}
}
