package main

import (
	"strings"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// families are the paper's model families, by the name prefixes the
// models package gives them — V^v, Z^a, DAR(p)[Z^a] (model S) and L —
// then every other model.
var families = []struct{ key, prefix string }{
	{"V", "V^"}, {"Z", "Z^"}, {"S", "DAR("}, {"L", "L"}, {"other", ""},
}

func family(modelName string) string {
	for _, f := range families {
		if strings.HasPrefix(modelName, f.prefix) {
			return f.key
		}
	}
	return "other"
}

// probe holds the traced replay's per-layer counters and busy timers.
// Boundaries too fine for one span per call — each ACF lag behind the
// Moments memo, each generator Fill — are counted and timed here and
// summed onto the enclosing model span instead. A nil *probe is the plain
// (untraced) replay: wrap returns the bare model and call just runs f.
type probe struct {
	reg      *telemetry.Registry
	acfEvals *telemetry.Counter
	ctsCalls *telemetry.Counter
	memoLags *telemetry.Counter
}

func newProbe() *probe {
	reg := telemetry.NewRegistry()
	return &probe{
		reg:      reg,
		acfEvals: reg.Counter("figbench_acf_evals_total"),
		ctsCalls: reg.Counter("figbench_cts_calls_total"),
		memoLags: reg.Counter("figbench_memo_lags_total"),
	}
}

// call runs one layer call under a child span of parent and adds its
// duration to the layer's busy timer.
func (p *probe) call(parent trace.Span, layer string, f func() error) error {
	if p == nil {
		return f()
	}
	sp := parent.Child(layer)
	stop := p.layer(layer).Start()
	err := f()
	stop()
	sp.End()
	return err
}

func (p *probe) layer(name string) *telemetry.Timer {
	return p.reg.Timer("figbench_layer_seconds", telemetry.L("layer", name))
}

func (p *probe) genTimer(kind, fam string) *telemetry.Timer {
	return p.reg.Timer("figbench_generator_seconds", telemetry.L("kind", kind), telemetry.L("model", fam))
}

func (p *probe) frames(fam string) *telemetry.Counter {
	return p.reg.Counter("figbench_generator_frames_total", telemetry.L("model", fam))
}

// genSeconds sums a generator timer over every family.
func (p *probe) genSeconds(kind string) float64 {
	var s float64
	for _, f := range families {
		s += p.genTimer(kind, f.key).SumSeconds()
	}
	return s
}

// tally is a snapshot of the probe's fine-grained counters, so a span can
// carry what happened beneath it.
type tally struct {
	acf, frames  int64
	fill, newGen float64
}

func (p *probe) tally() tally {
	if p == nil {
		return tally{}
	}
	t := tally{acf: p.acfEvals.Value(), fill: p.genSeconds("fill"), newGen: p.genSeconds("new")}
	for _, f := range families {
		t.frames += p.frames(f.key).Value()
	}
	return t
}

// annotate ends sp with the work the probe counted since before.
func (p *probe) annotate(sp trace.Span, before tally) {
	now := p.tally()
	sp.SetAttrs(
		trace.Int64("acf_evals", now.acf-before.acf),
		trace.Int64("frames", now.frames-before.frames),
		trace.Float("fill_s", now.fill-before.fill),
		trace.Float("new_s", now.newGen-before.newGen),
	)
	sp.End()
}

// wrap returns m instrumented for the traced replay. The wrapper forwards
// Name, Mean and Variance unchanged (replication seeds derive from the
// model name), counts ACF evaluations, and times generator construction
// and every frame drawn, per model family.
func (p *probe) wrap(m traffic.Model) traffic.Model {
	if p == nil {
		return m
	}
	fam := family(m.Name())
	return probedModel{
		Model:    m,
		acfEvals: p.acfEvals,
		newGen:   p.genTimer("new", fam),
		fill:     p.genTimer("fill", fam),
		frames:   p.frames(fam),
	}
}

type probedModel struct {
	traffic.Model
	acfEvals     *telemetry.Counter
	newGen, fill *telemetry.Timer
	frames       *telemetry.Counter
}

func (m probedModel) ACF(k int) float64 {
	m.acfEvals.Inc()
	return m.Model.ACF(k)
}

// NewGenerator wraps the model's generator in a timing shim that exposes
// exactly the optional interfaces the generator implements, so the
// multiplexer takes the same path — chunked Fill or per-frame feedback —
// as it does for the bare model.
func (m probedModel) NewGenerator(seed int64) traffic.Generator {
	stop := m.newGen.Start()
	g := m.Model.NewGenerator(seed)
	stop()
	if g == nil {
		return nil
	}
	pg := probedGen{g: g, fill: m.fill, frames: m.frames}
	switch inner := g.(type) {
	case traffic.FeedbackGenerator:
		return &probedFeedbackGen{pg, inner}
	case traffic.BlockGenerator:
		return &probedBlockGen{pg, inner}
	}
	return &pg
}

type probedGen struct {
	g      traffic.Generator
	fill   *telemetry.Timer
	frames *telemetry.Counter
}

func (g *probedGen) NextFrame() float64 {
	stop := g.fill.Start()
	v := g.g.NextFrame()
	stop()
	g.frames.Inc()
	return v
}

type probedBlockGen struct {
	probedGen
	b traffic.BlockGenerator
}

func (g *probedBlockGen) Fill(dst []float64) {
	stop := g.fill.Start()
	g.b.Fill(dst)
	stop()
	g.frames.Add(int64(len(dst)))
}

type probedFeedbackGen struct {
	probedGen
	f traffic.FeedbackGenerator
}

func (g *probedFeedbackGen) Observe(fb traffic.Feedback) { g.f.Observe(fb) }
