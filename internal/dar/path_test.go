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
// bit, so the block path and the per-frame path consume the stream
// identically. It runs the Z^0.975 fits at orders 1 to 3 and DAR(1) at
// ρ = 0.975 and 0.99, whose runs outlast the p = 1 fixed store, run past
// the ρ^k table and cross Fill calls. The fill lengths sit on each side
// of that store's 16-frame width and of twice it, and each length fills
// at least 2¹⁶ frames, so short runs also start at every slot near the
// end of dst.
func TestFillMatchesNextFrame(t *testing.T) {
	var procs []*dar.Process
	for p := 1; p <= 3; p++ {
		procs = append(procs, zFit(t, p))
	}
	for _, rho := range []float64{0.975, 0.99} {
		s, err := dar.NewDAR1(rho, dar.GaussianMarginal(500, 5000))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, s)
	}
	for _, s := range procs {
		for _, n := range []int{1, 7, 15, 16, 17, 31, 33, 4096} {
			block := s.NewGenerator(7).(traffic.BlockGenerator)
			scalar := s.NewGenerator(7)
			dst := make([]float64, n)
			for round := 0; round < max(3, 1<<16/n); round++ {
				block.Fill(dst)
				for i, got := range dst {
					want := scalar.NextFrame()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("DAR(%d) ρ = %v n=%d round %d frame %d: Fill %v, NextFrame %v", s.Order(), s.Rho(), n, round, i, got, want)
					}
				}
			}
		}
	}
}
