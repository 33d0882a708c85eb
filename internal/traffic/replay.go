package traffic

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/seed"
)

// Replay is a Model that plays back a recorded frame-size trace
// circularly. It makes captured sequences (VBR codec logs, or sample paths
// pre-synthesised by another model) first-class citizens of the
// multiplexer and analytics pipeline: Mean, Variance and ACF are the
// empirical circular statistics of the trace, and generators replay the
// trace from a seed-derived starting offset, so N "sources" are N rotated
// copies of the same path — the standard trace-driven-simulation device.
//
// Replay generators implement BlockGenerator natively: a Fill is just
// wrapped copies, which makes replay the cheapest source the block
// pipeline can drive and the reference workload for the
// BenchmarkMuxRunBlock/BenchmarkMuxRunScalar pair.
type Replay struct {
	name string
	data []float64
	mean float64
	vari float64

	mu  sync.Mutex
	acf []float64 // memoised circular autocorrelation, acf[0] = 1
}

// ReadTrace reads a frame-size trace file: one number per line, with
// blank lines and lines starting with # skipped. A line that does not
// parse, or parses to NaN or ±Inf, is an error naming its line number,
// so a corrupt trace cannot reach an estimator as NaN statistics.
func ReadTrace(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var xs []float64
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("value %v is not finite", v)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad trace line %q: %w", path, n, line, err)
		}
		xs = append(xs, v)
	}
	return xs, sc.Err()
}

// NewReplay copies trace (at least 2 frames, non-constant) into a replay
// model.
func NewReplay(name string, trace []float64) (*Replay, error) {
	if len(trace) < 2 {
		return nil, fmt.Errorf("traffic: replay trace has %d frames, want ≥ 2", len(trace))
	}
	data := append([]float64(nil), trace...)
	var sum float64
	for _, v := range data {
		sum += v
	}
	mean := sum / float64(len(data))
	var ss float64
	for _, v := range data {
		d := v - mean
		ss += d * d
	}
	vari := ss / float64(len(data))
	if vari == 0 {
		return nil, fmt.Errorf("traffic: replay trace is constant")
	}
	if name == "" {
		name = fmt.Sprintf("replay[%d]", len(data))
	}
	return &Replay{name: name, data: data, mean: mean, vari: vari, acf: []float64{1}}, nil
}

// Name implements Model.
func (r *Replay) Name() string { return r.name }

// DrawVersion implements DrawVersioned: one seed-derived offset per
// generator.
func (r *Replay) DrawVersion() string { return "replay.1" }

// Len returns the trace length in frames.
func (r *Replay) Len() int { return len(r.data) }

// Mean implements Model.
func (r *Replay) Mean() float64 { return r.mean }

// Variance implements Model.
func (r *Replay) Variance() float64 { return r.vari }

// ACF implements Model: the circular empirical autocorrelation
// (1/nσ²)·Σ_i (x_i−μ)(x_{(i+k) mod n}−μ), memoised per lag. Circular
// wrapping matches the generator's playback exactly, so the analytic and
// simulated second-order structure agree.
func (r *Replay) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	n := len(r.data)
	k %= n
	r.mu.Lock()
	defer r.mu.Unlock()
	for lag := len(r.acf); lag <= k; lag++ {
		var s float64
		for i, v := range r.data {
			j := i + lag
			if j >= n {
				j -= n
			}
			s += (v - r.mean) * (r.data[j] - r.mean)
		}
		r.acf = append(r.acf, s/(float64(n)*r.vari))
	}
	return r.acf[k]
}

// replayGen plays the shared trace from a fixed offset.
type replayGen struct {
	data []float64
	pos  int
}

// NewGenerator implements Model: playback from the seed-derived offset.
// Distinct seeds give distinct rotations of the trace.
func (r *Replay) NewGenerator(sd int64) Generator {
	off := int(uint64(seed.Derive(sd, 0)) % uint64(len(r.data)))
	return &replayGen{data: r.data, pos: off}
}

// NextFrame implements Generator.
func (g *replayGen) NextFrame() float64 {
	v := g.data[g.pos]
	g.pos++
	if g.pos == len(g.data) {
		g.pos = 0
	}
	return v
}

// Fill implements BlockGenerator by wrapped bulk copies.
func (g *replayGen) Fill(dst []float64) {
	for len(dst) > 0 {
		n := copy(dst, g.data[g.pos:])
		g.pos += n
		if g.pos == len(g.data) {
			g.pos = 0
		}
		dst = dst[n:]
	}
}
