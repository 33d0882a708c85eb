package traffic

// BlockGenerator produces frames in bulk: one Fill call writes the next
// len(dst) frames of the sample path into a caller-supplied buffer. It is
// the streaming counterpart of Generator — the multiplexer pulls
// multi-thousand-frame chunks through this interface so the per-frame cost
// of a simulation is a couple of float operations instead of a virtual
// call per source per frame.
//
// Implementations must consume their random number stream in exactly the
// same order as repeated NextFrame calls, so a sample path is bit-identical
// whether it is drawn frame by frame or block by block. Every generator in
// this repository satisfies that contract natively; Blocks supplies a
// fallback for third-party generators.
type BlockGenerator interface {
	// Fill writes the next len(dst) frame sizes into dst. A zero-length
	// dst is a no-op.
	Fill(dst []float64)
}

// Blocks adapts g to the block-streaming interface. If g already
// implements BlockGenerator its native Fill is used; otherwise the adapter
// falls back to one NextFrame call per element, which preserves the exact
// draw order (and therefore the exact sample path) of the scalar protocol
// at the legacy per-frame cost.
func Blocks(g Generator) BlockGenerator {
	if b, ok := g.(BlockGenerator); ok {
		return b
	}
	return scalarBlocks{g}
}

// scalarBlocks is the per-frame fallback used for generators that predate
// the block protocol.
type scalarBlocks struct{ g Generator }

// Fill implements BlockGenerator one NextFrame call at a time.
func (s scalarBlocks) Fill(dst []float64) {
	for i := range dst {
		dst[i] = s.g.NextFrame()
	}
}

// scalarModel erases the block capability of a model's generators.
type scalarModel struct{ Model }

// ScalarModel wraps m so that its generators expose only the scalar
// NextFrame protocol, forcing Blocks onto the per-frame fallback. The
// sample paths are unchanged — only the pull mechanism differs — which is
// exactly what the block/scalar equivalence tests and the
// BenchmarkMuxRunScalar baseline need.
func ScalarModel(m Model) Model { return scalarModel{m} }

// DrawVersion implements DrawVersioned: the paths are the wrapped model's.
func (s scalarModel) DrawVersion() string { return DrawVersion(s.Model) }

// NewGenerator implements Model, hiding the underlying generator's Fill.
func (s scalarModel) NewGenerator(seed int64) Generator {
	g := s.Model.NewGenerator(seed)
	if g == nil {
		return nil
	}
	return GeneratorFunc(g.NextFrame)
}

// FillFrames draws n frames from g through the block interface. It is the
// bulk counterpart of Generate and the two return identical slices for
// generators that honour the BlockGenerator draw-order contract.
func FillFrames(g BlockGenerator, n int) []float64 {
	out := make([]float64, n)
	g.Fill(out)
	return out
}
