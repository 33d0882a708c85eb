// Package traffic defines the interfaces shared by every VBR frame-size
// process in this repository. A Model carries the analytic second-order
// description (mean, variance, autocorrelation function) that the
// large-deviations machinery consumes, and manufactures Generators that the
// multiplexer simulation consumes.
//
// Frame sizes are measured in cells per frame throughout, matching the
// paper's convention (frame duration Ts seconds, service in cells/frame).
package traffic

// Generator produces successive frame sizes (cells/frame) of one source.
// Implementations are deterministic functions of their seed so simulation
// experiments are reproducible.
type Generator interface {
	// NextFrame returns the size of the next frame in cells. Values may be
	// fractional: the multiplexer treats frame volumes as fluid.
	NextFrame() float64
}

// Model is an analytically characterised wide-sense-stationary frame-size
// process.
type Model interface {
	// Name identifies the model in tables and plots, e.g. "Z^0.975".
	Name() string
	// Mean returns the mean frame size μ in cells/frame.
	Mean() float64
	// Variance returns the frame-size variance σ² in (cells/frame)².
	Variance() float64
	// ACF returns the autocorrelation r(k) at integer lag k ≥ 0, with
	// ACF(0) = 1.
	ACF(k int) float64
	// NewGenerator returns a fresh sample-path generator for this model.
	// Distinct seeds give statistically independent paths.
	NewGenerator(seed int64) Generator
}

// ACFRanger is an optional Model extension that evaluates the ACF over a
// run of consecutive lags more cheaply than one ACF call per lag. The
// contract is exact: ACFRange(dst, from) sets dst[i] to ACF(from+i), bit
// for bit, for every i, with from ≥ 0. Moments fills its memo through it
// a whole block at a time, past the lag a query needs, so a model whose
// per-lag cost is high (MPEG, trace replay) should not implement it.
type ACFRanger interface {
	ACFRange(dst []float64, from int)
}

// DrawVersioned is an optional Model extension naming the version of a
// model's draw order: which random draws make a sample path, and in what
// order. A family bumps its version whenever a change moves its paths at
// a fixed seed, and checkpoint fingerprints carry it, so replications
// saved under the old draws are never replayed into a run on the new
// ones. Substrates name their own version; wrappers report their base's
// and composites join their parts'.
type DrawVersioned interface {
	DrawVersion() string
}

// DrawVersion returns m's draw version, or "" when m declares none.
func DrawVersion(m Model) string {
	if v, ok := m.(DrawVersioned); ok {
		return v.DrawVersion()
	}
	return ""
}

// Generate draws n successive frames from g.
func Generate(g Generator, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.NextFrame()
	}
	return out
}

// ACFSlice evaluates m's ACF at lags 0..maxLag.
func ACFSlice(m Model, maxLag int) []float64 {
	out := make([]float64, maxLag+1)
	for k := range out {
		out[k] = m.ACF(k)
	}
	return out
}

// GeneratorFunc adapts a plain function to the Generator interface.
type GeneratorFunc func() float64

// NextFrame implements Generator.
func (f GeneratorFunc) NextFrame() float64 { return f() }
