package modelspec

import (
	"testing"

	"repro/internal/fgn"
	"repro/internal/traffic"
)

// TestBlockFillAllocatesNothing is the allocation fence on frame
// generation: once a generator has filled one 4096-frame chunk, filling
// the next allocates nothing, for every block-generator family. FGN
// synthesizes 1024-frame blocks so each fill crosses block boundaries.
// V is tested at v = 0.67, Fig 8's cheapest V: V^1.5 takes about 1.5 s
// per 4096 frames and runs the same code.
func TestBlockFillAllocatesNothing(t *testing.T) {
	for _, spec := range []string{
		"v:0.67", "z:0.975", "l", "dar1:0.9", "dar:0.975:2",
		"mpeg:0.975", "mginf:0.9", "fgn:0.8",
	} {
		t.Run(spec, func(t *testing.T) {
			m, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			if fm, ok := m.(*fgn.Model); ok {
				fm.BlockLen = 1024
			}
			g, ok := m.NewGenerator(1).(traffic.BlockGenerator)
			if !ok {
				t.Fatalf("%s generator has no native Fill", spec)
			}
			buf := make([]float64, 4096)
			// AllocsPerRun's own warm-up call is the first Fill.
			if n := testing.AllocsPerRun(1, func() { g.Fill(buf) }); n != 0 {
				t.Errorf("second Fill(4096) made %v allocations, want 0", n)
			}
		})
	}
}
