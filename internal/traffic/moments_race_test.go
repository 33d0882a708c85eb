package traffic

import (
	"math"
	"sync"
	"testing"
)

// acfModel is a minimal deterministic Model for concurrency tests.
type acfModel struct{}

func (acfModel) Name() string                 { return "acf-test" }
func (acfModel) Mean() float64                { return 100 }
func (acfModel) Variance() float64            { return 25 }
func (acfModel) NewGenerator(int64) Generator { return nil }
func (acfModel) ACF(k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	return math.Pow(float64(k), -0.4) // LRD-like decay keeps sums non-trivial
}

// rangedACF is acfModel with an ACF range method, so a Moments view over
// it fills in chunks.
type rangedACF struct{ acfModel }

func (m rangedACF) ACFRange(dst []float64, from int) {
	for i := range dst {
		dst[i] = m.ACF(from + i)
	}
}

// TestMomentsConcurrentAccess hammers one Moments view from many
// goroutines querying overlapping lag ranges in both directions — the
// access pattern of a parallel CTS sweep sharing one moment cache. Run
// under -race this validates the locking; the value checks validate that
// concurrent extension never corrupts the prefix sums.
func TestMomentsConcurrentAccess(t *testing.T) {
	mo := NewMoments(acfModel{})
	const (
		workers = 8
		maxM    = 600
	)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers sweep upward, half downward, so cache
			// extension races with reads of already-cached prefixes.
			for i := 1; i <= maxM; i++ {
				m := i
				if w%2 == 1 {
					m = maxM - i + 1
				}
				got := mo.VarSum(m)
				want := directVarSum(acfModel{}, m)
				if math.Abs(got-want) > 1e-9*math.Abs(want) {
					errs <- "VarSum mismatch"
					return
				}
				if r := mo.ACF(m); r != (acfModel{}).ACF(m) {
					errs <- "ACF mismatch"
					return
				}
				if av := mo.AggVariance(m); av < 0 {
					errs <- "negative AggVariance"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := mo.CachedLags(); got < maxM-1 {
		t.Errorf("cached lags = %d, want ≥ %d", got, maxM-1)
	}
}

// TestMomentsPrefixDuringExtend reads Prefix snapshots while another
// goroutine extends the same view. Under -race this validates the
// snapshot's safety argument: extension only appends past a snapshot's
// length, so its entries are never written again. The values must match
// a view filled beforehand by a single goroutine.
func TestMomentsPrefixDuringExtend(t *testing.T) {
	const maxM = 20000
	want := NewMoments(rangedACF{}).Prefix(maxM + rangeChunk)
	mo := NewMoments(rangedACF{})
	var wg sync.WaitGroup
	errs := make(chan string, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for m := 1; m <= maxM; m += 37 {
			mo.VarSum(m)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Even readers never extend; odd ones extend too.
				k := 0
				if w%2 == 1 {
					k = (i * 997) % maxM
				}
				p := mo.Prefix(k)
				top := p.MaxM()
				for _, m := range []int{1, top / 2, top - 1, top} {
					if m < 1 {
						continue
					}
					if a, b := p.VarSum(m), want.VarSum(m); math.Float64bits(a) != math.Float64bits(b) {
						errs <- "snapshot V(m) differs from a single-goroutine fill"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
