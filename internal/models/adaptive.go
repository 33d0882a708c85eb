package models

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// metAIMDRate records the controller's rate factor, sampled every
// rateSampleStride frames per source so the histogram costs an atomic
// bucket increment amortised over a stride, not per frame. Observational
// only: sampling never touches the controller state or the random streams.
var metAIMDRate = telemetry.Default.Histogram("aimd_rate_factor")

// rateSampleStride is the per-source sampling stride of metAIMDRate.
const rateSampleStride = 64

// AIMDConfig parameterises the adaptive rate controller. The zero value
// selects the defaults below via withDefaults; explicit fields override
// individually.
type AIMDConfig struct {
	// Target is the queue-occupancy set point as a fraction of the total
	// buffer (utilization stands in on zero/infinite buffers). Above it
	// the controller backs off multiplicatively; at or below it the rate
	// grows additively. Default 0.7.
	Target float64
	// Increase is the additive rate-factor increase per uncongested
	// frame. Default 0.01.
	Increase float64
	// Decrease is the multiplicative back-off applied on loss or when the
	// smoothed occupancy exceeds Target. Default 0.9.
	Decrease float64
	// MinRate and MaxRate clamp the rate factor. The default MaxRate of 1
	// models rate-adaptive video: the source never exceeds its encoded
	// (open-loop) rate, it only degrades below it under congestion, so the
	// adapted process is dominated path-wise by the open-loop twin.
	// Defaults 0.3 and 1.0.
	MinRate, MaxRate float64
	// Smoothing is the EWMA weight of the newest occupancy sample in the
	// congestion signal, in (0, 1]. Default 0.25.
	Smoothing float64
}

// DefaultAIMD is the default controller parameterisation.
var DefaultAIMD = AIMDConfig{
	Target:    0.7,
	Increase:  0.01,
	Decrease:  0.9,
	MinRate:   0.3,
	MaxRate:   1.0,
	Smoothing: 0.25,
}

// withDefaults fills zero fields from DefaultAIMD.
func (c AIMDConfig) withDefaults() AIMDConfig {
	d := DefaultAIMD
	if c.Target != 0 {
		d.Target = c.Target
	}
	if c.Increase != 0 {
		d.Increase = c.Increase
	}
	if c.Decrease != 0 {
		d.Decrease = c.Decrease
	}
	if c.MinRate != 0 {
		d.MinRate = c.MinRate
	}
	if c.MaxRate != 0 {
		d.MaxRate = c.MaxRate
	}
	if c.Smoothing != 0 {
		d.Smoothing = c.Smoothing
	}
	return d
}

// Validate checks a fully-defaulted configuration.
func (c AIMDConfig) Validate() error {
	if c.Target <= 0 || c.Target > 1 {
		return fmt.Errorf("models: AIMD target %v outside (0, 1]", c.Target)
	}
	if c.Increase <= 0 {
		return fmt.Errorf("models: AIMD increase %v must be positive", c.Increase)
	}
	if c.Decrease <= 0 || c.Decrease >= 1 {
		return fmt.Errorf("models: AIMD decrease %v outside (0, 1)", c.Decrease)
	}
	if c.MinRate <= 0 || c.MinRate > c.MaxRate {
		return fmt.Errorf("models: AIMD rate clamp [%v, %v] invalid", c.MinRate, c.MaxRate)
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		return fmt.Errorf("models: AIMD smoothing %v outside (0, 1]", c.Smoothing)
	}
	return nil
}

// AIMD wraps a base traffic model so that every source it manufactures is
// closed-loop: frame sizes are the base model's draws scaled by a rate
// factor that an additive-increase/multiplicative-decrease controller
// adapts to the multiplexer feedback (smoothed queue occupancy and
// per-frame loss). It is the repository's first rate-adaptive source —
// the modern-video counterexample to the paper's strictly open-loop
// assumption.
//
// The analytic description (Mean, Variance, ACF) delegates to the base
// model: it characterises the source's *offered* open-loop process, which
// is what the CAC machinery budgets for; the realised process under
// congestion is by construction no larger. Sample-path statistics of the
// adapted process come from simulation only.
type AIMD struct {
	base traffic.Model
	cfg  AIMDConfig
	name string
}

// NewAIMD wraps base with an AIMD rate controller. Zero fields of cfg
// take the DefaultAIMD values.
func NewAIMD(base traffic.Model, cfg AIMDConfig) (*AIMD, error) {
	if base == nil {
		return nil, fmt.Errorf("models: AIMD needs a base model")
	}
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &AIMD{base: base, cfg: c, name: "AIMD[" + base.Name() + "]"}, nil
}

// Name implements traffic.Model.
func (m *AIMD) Name() string { return m.name }

// Base returns the wrapped open-loop model.
func (m *AIMD) Base() traffic.Model { return m.base }

// DrawVersion implements traffic.DrawVersioned: the controller draws
// nothing, so the paths are the base's.
func (m *AIMD) DrawVersion() string { return traffic.DrawVersion(m.base) }

// Config returns the fully-defaulted controller parameters.
func (m *AIMD) Config() AIMDConfig { return m.cfg }

// Mean implements traffic.Model (the offered, open-loop mean).
func (m *AIMD) Mean() float64 { return m.base.Mean() }

// Variance implements traffic.Model (offered, open-loop).
func (m *AIMD) Variance() float64 { return m.base.Variance() }

// ACF implements traffic.Model (offered, open-loop).
func (m *AIMD) ACF(k int) float64 { return m.base.ACF(k) }

// NewGenerator implements traffic.Model. The returned generator
// implements traffic.FeedbackGenerator, so the multiplexer can step it
// frame by frame and deliver queue feedback after every frame; it is the
// one-buffer form of the Base/NewController split.
func (m *AIMD) NewGenerator(seed int64) traffic.Generator {
	g := m.base.NewGenerator(seed)
	if g == nil {
		return nil
	}
	return &aimdGen{base: g, aimdController: m.newController()}
}

// NewController implements traffic.ClosedLoopModel: one source's
// controller at full rate, for the multiplexer to drive from a base path
// it draws once for every buffer size.
func (m *AIMD) NewController() traffic.Controller {
	c := m.newController()
	return &c
}

func (m *AIMD) newController() aimdController {
	return aimdController{cfg: m.cfg, rate: 1}
}

// aimdController is one source's AIMD state: a pure function of the
// observed feedback sequence.
type aimdController struct {
	cfg  AIMDConfig
	rate float64 // current rate factor, clamped to [MinRate, MaxRate]
	occ  float64 // EWMA of the occupancy signal
	n    uint64  // observed frames, for telemetry sampling
}

// Rate implements traffic.Controller.
func (c *aimdController) Rate() float64 { return c.rate }

// Observe implements traffic.Controller: one AIMD update per served
// frame.
func (c *aimdController) Observe(fb traffic.Feedback) {
	c.occ += c.cfg.Smoothing * (fb.Occupancy() - c.occ)
	if fb.Loss > 0 || c.occ > c.cfg.Target {
		c.rate *= c.cfg.Decrease
	} else {
		c.rate += c.cfg.Increase
	}
	if c.rate < c.cfg.MinRate {
		c.rate = c.cfg.MinRate
	} else if c.rate > c.cfg.MaxRate {
		c.rate = c.cfg.MaxRate
	}
	if c.n%rateSampleStride == 0 {
		metAIMDRate.Observe(c.rate)
	}
	c.n++
}

// aimdGen is the closed-loop generator: a base generator, which owns all
// randomness, and its controller. Its Observe is the controller's.
type aimdGen struct {
	base traffic.Generator
	aimdController
}

// NextFrame implements traffic.Generator: the base draw scaled by the
// current rate factor. The base stream is consumed at exactly one draw
// per frame regardless of the rate, so two AIMD sources with the same
// seed but different congestion histories stay on the same underlying
// sample path.
func (g *aimdGen) NextFrame() float64 {
	return g.base.NextFrame() * g.rate
}
