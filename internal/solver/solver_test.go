package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -4}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -4 {
		t.Fatalf("got %v, want [3 -4]", x)
	}
}

func TestSolveKnown(t *testing.T) {
	// 2x + y = 5, x - y = 1  =>  x = 2, y = 1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("got %v, want [2 1]", x)
	}
}

func TestSolveNeedsPivot(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{7, 9}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 9 || x[1] != 7 {
		t.Fatalf("got %v, want [9 7]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := Solve(a, b); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected row-count error")
	}
	if _, err := Solve([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected column-count error")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Fatal("Solve mutated its inputs")
	}
}

// Property: for random well-conditioned systems, Solve(a, a·x) recovers x.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonal dominance => well conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBisectRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("got %v, want sqrt(2)", root)
	}
}

func TestBisectReversedInterval(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x - 1 }, 3, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-1) > 1e-10 {
		t.Fatalf("got %v, want 1", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x }, 0, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0 {
		t.Fatalf("got %v, want 0", root)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err != ErrNoBracket {
		t.Fatalf("got %v, want ErrNoBracket", err)
	}
}

func TestGoldenMinQuadratic(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 10, 1e-10)
	if math.Abs(x-3) > 1e-8 {
		t.Fatalf("got %v, want 3", x)
	}
}

func TestGoldenMinReversedInterval(t *testing.T) {
	x := GoldenMin(func(x float64) float64 { return math.Abs(x + 1) }, 4, -4, 1e-10)
	if math.Abs(x+1) > 1e-8 {
		t.Fatalf("got %v, want -1", x)
	}
}

func TestIntArgminParabola(t *testing.T) {
	f := func(m int) float64 { d := float64(m - 17); return d * d }
	res, ok := IntArgmin(f, 10000, 3, 3)
	if !ok {
		t.Fatal("stopping rule did not fire")
	}
	if res.Arg != 17 || res.Value != 0 {
		t.Fatalf("got %+v, want argmin 17 value 0", res)
	}
}

func TestIntArgminAtOne(t *testing.T) {
	f := func(m int) float64 { return float64(m) }
	res, ok := IntArgmin(f, 10000, 3, 3)
	if !ok || res.Arg != 1 {
		t.Fatalf("got %+v ok=%v, want argmin 1", res, ok)
	}
}

func TestIntArgminCapped(t *testing.T) {
	// Strictly decreasing: the rule can never fire, maxM caps the scan.
	f := func(m int) float64 { return 1 / float64(m) }
	res, ok := IntArgmin(f, 50, 3, 3)
	if ok {
		t.Fatal("stopping rule should not fire for decreasing objective")
	}
	if res.Arg != 50 {
		t.Fatalf("got argmin %d, want 50", res.Arg)
	}
}

func TestIntArgminInvalidMax(t *testing.T) {
	if _, ok := IntArgmin(func(int) float64 { return 0 }, 0, 3, 3); ok {
		t.Fatal("expected ok=false for maxM < 1")
	}
	if _, ok := IntArgminSlack(func(int) float64 { return 0 }, nil, 0, 3, 64, 3); ok {
		t.Fatal("expected ok=false for maxM < 1")
	}
}

func TestIntArgminSlackSurvivesEarlyRipple(t *testing.T) {
	// f has a shallow incumbent at m=1, a plateau high enough to trip the
	// value test immediately, and the true valley at m=60. Without slack
	// the rule fires at m=4 (4×1) and misses the valley; a slack of 64
	// postpones the stop until the scan has passed it.
	f := func(m int) float64 {
		switch {
		case m == 1:
			return 1
		case m == 60:
			return 0.5
		default:
			return 3
		}
	}
	res, ok := IntArgmin(f, 10000, 4, 3)
	if !ok || res.Arg != 1 {
		t.Fatalf("no-slack scan: got %+v ok=%v, want early stop at incumbent 1", res, ok)
	}
	res, ok = IntArgminSlack(f, nil, 10000, 4, 64, 3)
	if !ok {
		t.Fatal("slack scan: stopping rule did not fire")
	}
	if res.Arg != 60 || res.Value != 0.5 {
		t.Fatalf("slack scan: got %+v, want argmin 60 value 0.5", res)
	}
}

func TestIntArgminIsZeroSlack(t *testing.T) {
	// IntArgmin must behave exactly as IntArgminSlack with slack 0.
	f := func(m int) float64 { d := float64(m - 23); return d*d + 1 }
	a, aok := IntArgmin(f, 10000, 4, 3)
	b, bok := IntArgminSlack(f, nil, 10000, 4, 0, 3)
	if a != b || aok != bok {
		t.Fatalf("IntArgmin %+v ok=%v differs from zero-slack %+v ok=%v", a, aok, b, bok)
	}
}

func TestIntArgminSlackFloorStopsEarly(t *testing.T) {
	// f dips to 1 at m = 40 and climbs so slowly that the value test
	// fires only near m = 1455. floor(m) = f(max(m, 40)) bounds the tail
	// from below, so the scan may stop at the first m past the argument
	// test (4·40 + 64 = 224) where the floor exceeds the incumbent.
	f := func(m int) float64 { d := float64(m-40) / 1000; return 1 + d*d }
	floor := func(m int) float64 { return f(max(m, 40)) }
	var calls int
	counted := func(m int) float64 { calls++; return f(m) }

	plain, ok := IntArgminSlack(counted, nil, 10000, 4, 64, 3)
	if !ok || plain.Arg != 40 || calls < 1400 {
		t.Fatalf("no floor: got %+v ok=%v after %d calls, want argmin 40 after ≥ 1400", plain, ok, calls)
	}
	calls = 0
	got, ok := IntArgminSlack(counted, floor, 10000, 4, 64, 3)
	if !ok || got != plain || calls != 224 {
		t.Fatalf("floor: got %+v ok=%v after %d calls, want %+v after 224", got, ok, calls, plain)
	}

	// With maxM below the value test's stop, the plain scan runs out
	// unconverged; the floor proves the same incumbent and reports ok.
	capped, cok := IntArgminSlack(f, nil, 1000, 4, 64, 3)
	floored, fok := IntArgminSlack(f, floor, 1000, 4, 64, 3)
	if cok || !fok || capped != floored {
		t.Fatalf("maxM 1000: plain %+v ok=%v, floor %+v ok=%v; want equal results, ok false then true",
			capped, cok, floored, fok)
	}
}
