package mux

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/traffic"
)

// recordingModel manufactures closed-loop sources whose frames depend on
// the feedback they observe, so a queue really forms and its state steers
// the arrivals. Every Feedback any of its sources receives is FNV-hashed,
// in delivery order, into one shared hash: the hash pins the whole
// feedback sequence, not just the run's summary. With openEvery > 0,
// every openEvery-th source is an open-loop generator instead, so the run
// mixes both kinds.
type recordingModel struct {
	mean      float64 // nominal per-source frame size, cells
	openEvery int
	made      int
	h         hash.Hash64
}

func newRecordingModel(mean float64, openEvery int) *recordingModel {
	return &recordingModel{mean: mean, openEvery: openEvery, h: fnv.New64a()}
}

func (m *recordingModel) Name() string      { return "recording" }
func (m *recordingModel) Mean() float64     { return m.mean }
func (m *recordingModel) Variance() float64 { return m.mean * m.mean / 12 }
func (m *recordingModel) ACF(k int) float64 {
	if k == 0 {
		return 1
	}
	return 0
}

func (m *recordingModel) NewGenerator(seed int64) traffic.Generator {
	m.made++
	g := &recordingGen{state: uint64(seed), mean: m.mean, rate: 1, h: m.h}
	if m.openEvery > 0 && m.made%m.openEvery == 0 {
		return traffic.GeneratorFunc(g.NextFrame)
	}
	return g
}

// recordingGen draws frames uniform on rate·mean·[0.5, 1.5) from a
// splitmix64 stream. It speeds up (rate 1.1) while the queue is short and
// backs off (rate 0.9) once the workload passes half a frame's service or
// a frame loses cells.
type recordingGen struct {
	state      uint64
	mean, rate float64
	h          hash.Hash64
}

func (g *recordingGen) NextFrame() float64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return g.rate * g.mean * (0.5 + u)
}

func (g *recordingGen) Observe(fb traffic.Feedback) {
	var buf [8 * 6]byte
	for i, v := range []uint64{
		uint64(fb.Frame), math.Float64bits(fb.W), math.Float64bits(fb.Buffer),
		math.Float64bits(fb.Capacity), math.Float64bits(fb.Loss), math.Float64bits(fb.Utilization),
	} {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	g.h.Write(buf[:])
	if fb.Loss > 0 || fb.W > fb.Capacity/2 {
		g.rate = 0.9
	} else {
		g.rate = 1.1
	}
}

// The pins below hold the closed-loop drains (finite and infinite buffer,
// pure and mixed with open-loop sources) and the open-loop BOP drain to
// their exact output and feedback sequence. Horizons straddle chunk
// boundaries with a ragged warm-up.

func TestClosedLoopRunPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		openEvery int
		want      Result
		hash      uint64
	}{
		{"closed", 0, Result{Frames: 9000, ArrivedCells: 5.399909610979305e+06,
			LostCells: 186.2252798389095, CLR: 3.4486740196589414e-05, LossFrames: 5,
			MeanWorkload: 299.88267779780523, MaxWorkload: 600,
			FinalW: 322.0264838724089, InitialW: 414.77964951986564}, 0x12668708170e0f11},
		{"mixed", 3, Result{Frames: 9000, ArrivedCells: 5.3987928887402e+06,
			LostCells: 641.8570193358678, CLR: 0.00011888898732798845, LossFrames: 24,
			MeanWorkload: 297.9542236652771, MaxWorkload: 600,
			FinalW: 358.65664215587356, InitialW: 493.6283416257279}, 0xeb5760a88ac7dc65},
	} {
		m := newRecordingModel(100, tc.openEvery)
		cfg := Config{Model: m, N: 6, C: 100, B: 100, Frames: 9000, Warmup: 300, Seed: 1996}
		steps0 := metFeedbackSteps.Value()
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: Run = %#v, want %#v", tc.name, got, tc.want)
		}
		if h := m.h.Sum64(); h != tc.hash {
			t.Errorf("%s: feedback hash %#x, want %#x", tc.name, h, tc.hash)
		}
		if d := metFeedbackSteps.Value() - steps0; d != int64(cfg.Warmup+cfg.Frames) {
			t.Errorf("%s: feedback steps advanced %d, want %d", tc.name, d, cfg.Warmup+cfg.Frames)
		}
		if got.LostCells == 0 || got.MaxWorkload == 0 {
			t.Errorf("%s: no queue formed: %+v", tc.name, got)
		}
	}
}

func TestClosedLoopRunBOPPinned(t *testing.T) {
	m := newRecordingModel(100, 0)
	cfg := BOPConfig{Model: m, N: 6, C: 100, Frames: 9000, Warmup: 300, Seed: 7,
		Thresholds: []float64{300, 0, 100, 1000}}
	steps0 := metFeedbackSteps.Value()
	got, err := RunBOP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBOP(t, got, BOPResult{
		Thresholds: []float64{300, 0, 100, 1000},
		Prob:       []float64{0.49066666666666664, 0.9986666666666667, 0.9818888888888889, 0},
		MaxW:       674.5603056001357,
	})
	if h, wantH := m.h.Sum64(), uint64(0xbeee3771aa01c73d); h != wantH {
		t.Errorf("feedback hash %#x, want %#x", h, wantH)
	}
	if d := metFeedbackSteps.Value() - steps0; d != int64(cfg.Warmup+cfg.Frames) {
		t.Errorf("feedback steps advanced %d, want %d", d, cfg.Warmup+cfg.Frames)
	}
}

func TestOpenLoopRunBOPPinned(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunBOP(BOPConfig{Model: z, N: 10, C: 538, Frames: 9000, Warmup: 300, Seed: 3,
		Thresholds: []float64{1000, 0, 100}})
	if err != nil {
		t.Fatal(err)
	}
	checkBOP(t, got, BOPResult{
		Thresholds: []float64{1000, 0, 100},
		Prob:       []float64{0.014222222222222223, 0.06677777777777778, 0.04544444444444445},
		MaxW:       3403.6914943254433,
	})
}

func checkBOP(t *testing.T, got, want BOPResult) {
	t.Helper()
	if got.MaxW != want.MaxW || len(got.Prob) != len(want.Prob) || len(got.Thresholds) != len(want.Thresholds) {
		t.Fatalf("RunBOP = %#v, want %#v", got, want)
	}
	for i := range want.Prob {
		if got.Prob[i] != want.Prob[i] || got.Thresholds[i] != want.Thresholds[i] {
			t.Fatalf("RunBOP = %#v, want %#v", got, want)
		}
	}
}
