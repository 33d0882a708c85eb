// Package dar implements the discrete autoregressive process of order p,
// DAR(p), of Jacobs and Lewis (1978), exactly as used in the paper: a p-th
// order Markov chain whose stationary marginal distribution is chosen freely
// and whose autocorrelation function satisfies the Yule-Walker recursion of
// an AR(p) process.
//
// The process is
//
//	S_n = V_n · S_{n−A_n} + (1−V_n) · ε_n
//
// where V_n is Bernoulli(ρ), A_n picks lag i with probability a_i
// (Σ a_i = 1), and ε_n are i.i.d. draws from the marginal π. With
// probability ρ the process repeats one of its last p values; otherwise it
// innovates. Crucially the marginal of S_n is exactly π regardless of ρ and
// a, which is what lets the paper hold first-order statistics fixed while
// sweeping correlation structure.
//
// Generators draw the path run by run rather than frame by frame: the
// repeats between two innovations are Geometric(1−ρ), so one uniform per
// run replaces the Bernoulli(ρ) test of every frame. At p = 1 a run is
// the innovation and its K repeats, written together; at p > 1 each
// repeat still draws its lag A_n.
//
// The package also provides the fitting procedure used for the paper's
// model S: given the first p autocorrelations of a target process, solve
// the (linear) Yule-Walker system for ρ and a_1..a_p so the DAR(p) matches
// them exactly (paper §3.1 and Table 1).
package dar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/randx"
	"repro/internal/solver"
	"repro/internal/traffic"
)

// Marginal describes the stationary marginal distribution π of a DAR
// process: its first two moments plus a sampler.
type Marginal struct {
	Mean     float64
	Variance float64
	// Sample draws one value from π using r.
	Sample func(r *rand.Rand) float64
}

// GaussianMarginal returns a Gaussian marginal with the given mean and
// variance, the distribution used for every model in the paper.
func GaussianMarginal(mean, variance float64) Marginal {
	sd := math.Sqrt(variance)
	return Marginal{
		Mean:     mean,
		Variance: variance,
		Sample: func(r *rand.Rand) float64 {
			return mean + sd*r.NormFloat64()
		},
	}
}

// Process is a DAR(p) process with a fixed parameterisation. Its ACF
// evaluation is memoised and safe for concurrent use; generators returned
// by NewGenerator are not safe for concurrent use (one per goroutine).
type Process struct {
	rho      float64
	a        []float64       // selection probabilities, length p, sum 1
	cumA     []float64       // cumulative sums of a for inverse sampling
	runPow   []float64       // ρ^1 … ρ^n, n ≤ runCap: P(run ≥ k) = ρ^k
	guide    [guideLen]uint8 // guide[j] = #{k : ρ^k ≥ (j+1)/guideLen}
	marginal Marginal
	name     string

	mu     sync.Mutex
	acfMem []float64 // memoised r(0), r(1), ... extended on demand
	fixed  bool      // every lag past acfMem equals its last entry
}

// New constructs a DAR(p) process. rho must lie in [0, 1); a must be a
// probability vector (finite, non-negative, summing to 1 within
// tolerance) of length p ≥ 1; the marginal needs a sampler, a finite
// mean and a finite non-negative variance.
func New(rho float64, a []float64, marginal Marginal) (*Process, error) {
	if !(rho >= 0 && rho < 1) {
		return nil, fmt.Errorf("dar: rho %v outside [0, 1)", rho)
	}
	if len(a) == 0 {
		return nil, errors.New("dar: empty selection vector")
	}
	var sum float64
	for i, ai := range a {
		if !(ai >= -1e-12) {
			return nil, fmt.Errorf("dar: selection probability a[%d] = %v negative or NaN", i+1, ai)
		}
		sum += ai
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return nil, fmt.Errorf("dar: selection probabilities sum to %v, want 1", sum)
	}
	if marginal.Sample == nil {
		return nil, errors.New("dar: marginal has no sampler")
	}
	if math.IsNaN(marginal.Mean) || math.IsInf(marginal.Mean, 0) {
		return nil, fmt.Errorf("dar: marginal mean %v not finite", marginal.Mean)
	}
	if !(marginal.Variance >= 0) || math.IsInf(marginal.Variance, 1) {
		return nil, fmt.Errorf("dar: marginal variance %v not finite and non-negative", marginal.Variance)
	}
	p := &Process{
		rho:      rho,
		a:        append([]float64(nil), a...),
		marginal: marginal,
		name:     fmt.Sprintf("DAR(%d)", len(a)),
	}
	p.cumA = make([]float64, len(a))
	var c float64
	for i, ai := range p.a {
		c += ai
		p.cumA[i] = c
	}
	p.cumA[len(p.cumA)-1] = 1 // guard against rounding in inverse sampling
	for pw := rho; pw > 0 && len(p.runPow) < runCap; pw *= rho {
		p.runPow = append(p.runPow, pw)
	}
	k := len(p.runPow)
	for j := range p.guide {
		for k > 0 && p.runPow[k-1] < float64(j+1)/guideLen {
			k--
		}
		p.guide[j] = uint8(k)
	}
	return p, nil
}

// runCap bounds the ρ^k table. A run longer than runCap repeats is drawn
// runCap at a time, so a ρ near 1 costs one uniform per runCap frames and
// no memory.
const runCap = 64

// guideLen is the number of equal buckets of [0, 1) the guide table
// splits u into.
const guideLen = 256

// runLength maps a uniform u to the repeats before the next innovation,
// K = #{k ≥ 1 : u < ρ^k}, so P(K ≥ k) = ρ^k: Geometric(1−ρ) on
// {0, 1, …}. When u falls below ρ^runCap it returns runCap with more
// set; the run's remainder is then a fresh draw of the same law, which
// is exact because the geometric law is memoryless.
//
// The scan starts at the guide entry of u's bucket [j, j+1)/guideLen:
// u < (j+1)/guideLen ≤ ρ^k for every k it skips. u·guideLen is exact, a
// power-of-two scaling, so the bucket is too, and K is the plain count
// for every u.
func (p *Process) runLength(u float64) (k int, more bool) {
	k = int(p.guide[int(u*guideLen)])
	for k < len(p.runPow) && u < p.runPow[k] {
		k++
	}
	return k, k == runCap
}

// NewDAR1 constructs the first-order special case whose lag-k
// autocorrelation is exactly rho^k.
func NewDAR1(rho float64, marginal Marginal) (*Process, error) {
	return New(rho, []float64{1}, marginal)
}

// Order returns p.
func (p *Process) Order() int { return len(p.a) }

// Rho returns the retention probability ρ.
func (p *Process) Rho() float64 { return p.rho }

// SelectionProbs returns a copy of a_1..a_p.
func (p *Process) SelectionProbs() []float64 { return append([]float64(nil), p.a...) }

// Name implements traffic.Model.
func (p *Process) Name() string { return p.name }

// SetName overrides the display name (e.g. "DAR(2) fit to Z^0.975").
func (p *Process) SetName(name string) { p.name = name }

// DrawVersion implements traffic.DrawVersioned. Version 2 draws one
// geometric run length per innovation; version 1 drew a Bernoulli(ρ)
// test, and on a repeat a lag, every frame.
func (p *Process) DrawVersion() string { return "dar.2" }

// Mean implements traffic.Model.
func (p *Process) Mean() float64 { return p.marginal.Mean }

// Variance implements traffic.Model.
func (p *Process) Variance() float64 { return p.marginal.Variance }

// ACF implements traffic.Model. The autocorrelations satisfy
// r(k) = Σ_{i=1..p} ρ a_i r(|k−i|) for k ≥ 1 with r(0) = 1; the first p
// values follow from solving that linear system, later values from the
// recursion. All computed values are memoised, so scanning lags 1..K (as
// the critical-time-scale search does) costs O(K) total, and the memo
// stops at the recursion's floating-point fixed point (see extendLocked).
func (p *Process) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendLocked(k)
	return p.acfMem[min(k, len(p.acfMem)-1)]
}

// ACFRange implements traffic.ACFRanger: dst[i] = ACF(from+i) for
// from ≥ 0, copied from the memo under one lock, with lags past a fixed
// point filled with its value.
func (p *Process) ACFRange(dst []float64, from int) {
	if len(dst) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extendLocked(from + len(dst) - 1)
	n := 0
	if from < len(p.acfMem) {
		n = copy(dst, p.acfMem[from:])
	}
	last := p.acfMem[len(p.acfMem)-1]
	for i := n; i < len(dst); i++ {
		dst[i] = last
	}
}

// extendLocked grows the ACF memo through lag k. The recursion decays
// geometrically, but in floating point it settles on a fixed point: for
// DAR(1) with ρ > ½, ρ·x rounds back to x once x is the smallest
// subnormals (lag 2086 at ρ = 0.7), and for ρ ≤ ½ it reaches 0. Lag k
// is a function of the p lags before it alone, so once the last p
// entries and the next lag are all one value, bit for bit, every later
// lag is that value too; the memo stops growing there and ACF serves
// the rest from its last entry. Callers must hold p.mu.
func (p *Process) extendLocked(k int) {
	if p.acfMem == nil {
		p.acfMem = p.solveACFBase()
	}
	for lag := len(p.acfMem); lag <= k && !p.fixed; lag++ {
		var r float64
		for i, ai := range p.a {
			r += p.rho * ai * p.acfMem[lag-1-i]
		}
		if p.fixed = p.repeats(r); !p.fixed {
			p.acfMem = append(p.acfMem, r)
		}
	}
}

// repeats reports whether r and the last p memo entries are one value,
// bit for bit.
func (p *Process) repeats(r float64) bool {
	bits := math.Float64bits(r)
	for _, v := range p.acfMem[len(p.acfMem)-len(p.a):] {
		if math.Float64bits(v) != bits {
			return false
		}
	}
	return true
}

// solveACFBase solves the order-p Yule-Walker system for r(0..p).
func (p *Process) solveACFBase() []float64 {
	order := len(p.a)
	base := make([]float64, order+1)
	base[0] = 1
	if order == 1 {
		base[1] = p.rho * p.a[0]
		return base
	}
	// Unknowns x_j = r(j), j = 1..p. Equation for k = 1..p:
	//   r(k) − Σ_i ρ a_i r(|k−i|) = 0, with r(0) = 1 moved to the RHS.
	mat := make([][]float64, order)
	rhs := make([]float64, order)
	for k := 1; k <= order; k++ {
		row := make([]float64, order)
		row[k-1] = 1
		for i := 1; i <= order; i++ {
			c := p.rho * p.a[i-1]
			lag := k - i
			if lag < 0 {
				lag = -lag
			}
			if lag == 0 {
				rhs[k-1] += c
			} else {
				row[lag-1] -= c
			}
		}
		mat[k-1] = row
	}
	x, err := solver.Solve(mat, rhs)
	if err != nil {
		// The Yule-Walker matrix I−C is strictly diagonally dominant for
		// ρ < 1 and can only be singular through pathological rounding;
		// fall back to the DAR(1)-style geometric envelope.
		for k := 1; k <= order; k++ {
			base[k] = math.Pow(p.rho, float64(k))
		}
		return base
	}
	copy(base[1:], x)
	return base
}

// generator is the sample-path state of a DAR(p) source. It draws run
// lengths and lag picks from the concrete stream and hands rng, a
// rand.Rand view of the same stream, to the marginal's sampler, so every
// draw advances one sequence.
//
// The path is a sequence of runs: after each innovation the chain repeats
// history K times, K ~ Geometric(1−ρ) on {0, 1, …}, and then innovates
// again. One uniform per run draws K (Process.runLength); the per-frame
// Bernoulli(ρ) test of the definition has the same law.
type generator struct {
	p    *Process
	src  *randx.Stream
	rng  *rand.Rand
	ring []float64 // last p values; ring[head] is the most recent, lag i sits i−1 slots on
	head int
	owed int  // repeats still owed before the run's next draw
	more bool // the run outlasted the ρ^k table: redraw after owed, not innovate
}

// NewGenerator implements traffic.Model. The chain starts from p i.i.d.
// draws of the marginal; because the marginal is exact for every n, no
// warm-up is required for first-order statistics, and second-order
// transients decay geometrically.
func (p *Process) NewGenerator(seed int64) traffic.Generator {
	src := randx.NewStream(seed)
	rng := src.Rand()
	ring := make([]float64, len(p.a))
	for i := range ring {
		ring[i] = p.marginal.Sample(rng)
	}
	g := &generator{p: p, src: src, rng: rng, ring: ring}
	g.owed, g.more = p.runLength(src.Float64())
	return g
}

// NextFrame implements traffic.Generator as a one-frame Fill.
func (g *generator) NextFrame() float64 {
	var v [1]float64
	g.Fill(v[:])
	return v[0]
}

// Fill implements traffic.BlockGenerator. The draws depend on the frame
// sequence alone, so any split into Fill calls, or NextFrame calls,
// yields the same path bit for bit.
func (g *generator) Fill(dst []float64) {
	if len(g.ring) == 1 {
		g.fill1(dst)
		return
	}
	g.fillP(dst)
}

// runStore is the width of fill1's fixed store. A run of at most
// runStore frames is one store of that many copies; the next run
// overwrites the excess. runCap ≥ runStore (checked below), so such a
// run never outlasts the ρ^k table.
const runStore = 16

const _ = uint(runCap - runStore)

// fill1 is Fill at p = 1, run by run on locals: the held value v, the
// repeats it still owes and whether the run outlasted the table. An
// innovation and its K repeats are written together.
func (g *generator) fill1(dst []float64) {
	p, src, rng := g.p, g.src, g.rng
	v, owed, more := g.ring[0], g.owed, g.more
	for i := 0; ; {
		// Write the repeats owed, drawing on past the table while more.
		for {
			rest := dst[i:]
			if owed >= len(rest) {
				for j := range rest {
					rest[j] = v
				}
				g.ring[0], g.owed, g.more = v, owed-len(rest), more
				return
			}
			rep := rest[:owed]
			for j := range rep {
				rep[j] = v
			}
			if i += owed; !more {
				break
			}
			owed, more = p.runLength(src.Float64())
		}
		// Innovate. Here i < len(dst), and a store leaves it so.
		for {
			v = p.marginal.Sample(rng)
			owed, more = p.runLength(src.Float64())
			if owed >= runStore || len(dst)-i <= runStore {
				break
			}
			b := (*[runStore]float64)(dst[i:])
			b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = v, v, v, v, v, v, v, v
			b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15] = v, v, v, v, v, v, v, v
			i += owed + 1
		}
		dst[i] = v
		i++
	}
}

// fillP is Fill at p > 1. Each pass writes the repeats the current run
// still owes, then either innovates and draws the next run's length or,
// past the table, draws the rest of the run.
func (g *generator) fillP(dst []float64) {
	for i := 0; i < len(dst); {
		if g.owed == 0 {
			if !g.more {
				v := g.p.marginal.Sample(g.rng)
				g.push(v)
				dst[i] = v
				i++
			}
			g.owed, g.more = g.p.runLength(g.src.Float64())
			continue
		}
		n := min(g.owed, len(dst)-i)
		g.owed -= n
		g.repeat(dst[i : i+n])
		i += n
	}
}

// repeat writes len(dst) repeats at p > 1: each frame draws its lag A,
// P(A = i) = a_i, reads it from the ring and becomes the most recent
// value.
func (g *generator) repeat(dst []float64) {
	ring := g.ring
	cumA, head := g.p.cumA, g.head
	for i := range dst {
		u := g.src.Float64()
		j := len(cumA) - 1
		for k, c := range cumA {
			if u <= c {
				j = k
				break
			}
		}
		if j += head; j >= len(ring) {
			j -= len(ring)
		}
		v := ring[j]
		if head--; head < 0 {
			head = len(ring) - 1
		}
		ring[head] = v
		dst[i] = v
	}
	g.head = head
}

// push makes v the most recent value, dropping the one at lag p.
func (g *generator) push(v float64) {
	if g.head--; g.head < 0 {
		g.head = len(g.ring) - 1
	}
	g.ring[g.head] = v
}

// MaxOrder is the largest DAR order Fit accepts. The paper fits p ≤ 3
// (Table 1); 64 leaves twenty times that for experiments while keeping the
// dense p×p Yule–Walker system at 32 KiB and its O(p³) solve well under a
// millisecond. Orders arrive from model specs and command-line flags, so
// without a bound a mistyped order asks for gigabytes instead of failing.
const MaxOrder = 64

// Fit solves for the DAR(p) parameters (ρ, a) that exactly match the target
// autocorrelations target[0..p-1] = r(1)..r(p). This is the construction of
// the paper's model S (§3.1, Table 1): the Yule-Walker relations are linear
// in c_i = ρ a_i, so one dense solve suffices.
//
// Fit returns an error when the target correlations are not achievable by a
// DAR(p) (the solved ρ falls outside [0, 1) or some a_i is negative), which
// signals the caller to reduce p or adjust targets, and when p exceeds
// MaxOrder.
func Fit(target []float64, marginal Marginal) (*Process, error) {
	p := len(target)
	if p == 0 {
		return nil, errors.New("dar: no target correlations")
	}
	if p > MaxOrder {
		return nil, fmt.Errorf("dar: order %d above the maximum %d", p, MaxOrder)
	}
	for i, r := range target {
		if r <= -1 || r >= 1 {
			return nil, fmt.Errorf("dar: target correlation r(%d) = %v outside (-1, 1)", i+1, r)
		}
	}
	// System: for k = 1..p, r(k) = Σ_i c_i r(|k−i|) with r(0) = 1.
	r := func(lag int) float64 {
		if lag < 0 {
			lag = -lag
		}
		if lag == 0 {
			return 1
		}
		return target[lag-1]
	}
	mat := make([][]float64, p)
	rhs := make([]float64, p)
	for k := 1; k <= p; k++ {
		row := make([]float64, p)
		for i := 1; i <= p; i++ {
			row[i-1] = r(k - i)
		}
		mat[k-1] = row
		rhs[k-1] = r(k)
	}
	c, err := solver.Solve(mat, rhs)
	if err != nil {
		return nil, fmt.Errorf("dar: Yule-Walker solve failed: %w", err)
	}
	var rho float64
	for _, ci := range c {
		rho += ci
	}
	if rho <= 0 || rho >= 1 {
		return nil, fmt.Errorf("dar: fitted rho %v outside (0, 1)", rho)
	}
	a := make([]float64, p)
	for i, ci := range c {
		a[i] = ci / rho
		if a[i] < -1e-9 {
			return nil, fmt.Errorf("dar: fitted a[%d] = %v negative; targets not DAR(%d)-feasible", i+1, a[i], p)
		}
		if a[i] < 0 {
			a[i] = 0
		}
	}
	proc, err := New(rho, a, marginal)
	if err != nil {
		return nil, err
	}
	return proc, nil
}
