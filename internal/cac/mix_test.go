package cac

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func TestMixMeetsTarget(t *testing.T) {
	z, err := models.NewZ(0.9)
	if err != nil {
		t.Fatal(err)
	}
	link := testLink(0.020)
	light := core.Mix{{Model: z, Count: 5}}
	ok, err := MixMeetsTarget(light, link, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("light load should meet the target")
	}
	// Overload: more sources than the link's mean capacity.
	heavy := core.Mix{{Model: z, Count: 40}}
	ok, err = MixMeetsTarget(heavy, link, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unstable load cannot meet the target")
	}
}

func TestMixMeetsTargetValidation(t *testing.T) {
	z, _ := models.NewZ(0.9)
	mix := core.Mix{{Model: z, Count: 5}}
	if _, err := MixMeetsTarget(mix, Link{}, 1e-6); err == nil {
		t.Error("bad link should error")
	}
	if _, err := MixMeetsTarget(mix, testLink(0.02), 0); err == nil {
		t.Error("target 0 should error")
	}
	if _, err := MixMeetsTarget(core.Mix{}, testLink(0.02), 1e-6); err == nil {
		t.Error("empty mix should error")
	}
}

func TestMaxAdditionalMatchesAdmissibleWhenEmpty(t *testing.T) {
	// With no existing load, MaxAdditional must agree with Admissible.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	link := testLink(0.020)
	whole, err := Admissible(z, link, 1e-6, BahadurRao)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := MaxAdditional(core.Mix{{Model: z, Count: 0}}, z, link, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The two formulations share the estimate up to the per-source vs
	// total rounding of the stability ceiling.
	if diff := extra - whole; diff < -1 || diff > 1 {
		t.Fatalf("MaxAdditional %d vs Admissible %d", extra, whole)
	}
}

func TestMaxAdditionalShrinksWithExistingLoad(t *testing.T) {
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	l, err := models.NewL()
	if err != nil {
		t.Fatal(err)
	}
	link := testLink(0.020)
	prev := -1
	for _, existing := range []int{0, 5, 10, 15} {
		mix := core.Mix{{Model: l, Count: existing}}
		extra, err := MaxAdditional(mix, z, link, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && extra > prev {
			t.Fatalf("admissible extras rose with load: %d after %d", extra, prev)
		}
		prev = extra
	}
	if prev != 0 && prev >= 25 {
		t.Fatalf("implausible extra count %d at 15 existing L sources", prev)
	}
}

func TestMaxAdditionalZeroWhenAlreadyViolating(t *testing.T) {
	z, _ := models.NewZ(0.99)
	link := testLink(0.002) // tight delay bound
	// Saturate close to capacity.
	mix := core.Mix{{Model: z, Count: 28}}
	extra, err := MaxAdditional(mix, z, link, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Fatalf("got %d extra connections on a violating link", extra)
	}
}

func TestMaxAdditionalValidation(t *testing.T) {
	z, _ := models.NewZ(0.9)
	mix := core.Mix{{Model: z, Count: 1}}
	if _, err := MaxAdditional(mix, nil, testLink(0.02), 1e-6); err == nil {
		t.Error("nil model should error")
	}
	if _, err := MaxAdditional(mix, z, Link{}, 1e-6); err == nil {
		t.Error("bad link should error")
	}
	if _, err := MaxAdditional(mix, z, testLink(0.02), 1); err == nil {
		t.Error("target 1 should error")
	}
}

func TestMaxAdditionalInfeasibleExistingMix(t *testing.T) {
	// An existing mix that already violates the target (overbooked by
	// mean rate, i.e. unstable) must yield exactly 0 additional
	// connections and no error: "none fit" is an answer, not a failure.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	link := testLink(0.020)
	over := int(link.CellsPerFrame()/z.Mean()) + 5 // mean load past capacity
	mix := core.Mix{{Model: z, Count: over}}
	ok, err := MixMeetsTarget(mix, link, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("overbooked mix cannot meet the target")
	}
	extra, err := MaxAdditional(mix, z, link, 1e-6)
	if err != nil {
		t.Fatalf("infeasible existing mix must not error: %v", err)
	}
	if extra != 0 {
		t.Fatalf("got %d extra connections on an infeasible mix, want 0", extra)
	}
}

func TestMaxAdditionalZeroCapacityLink(t *testing.T) {
	// A zero-capacity link fails Link.Validate, so MaxAdditional reports
	// the configuration error rather than silently answering 0.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	mix := core.Mix{{Model: z, Count: 0}}
	extra, err := MaxAdditional(mix, z, Link{CellsPerSec: 0, Ts: models.Ts, Delay: 0.02}, 1e-6)
	if err == nil {
		t.Fatal("zero-capacity link should error")
	}
	if extra != 0 {
		t.Fatalf("errored call returned %d, want 0", extra)
	}
}

func TestMaxAdditionalSingleSourceExceedsCapacity(t *testing.T) {
	// A class whose single source's mean exceeds the whole link: the
	// stability ceiling is negative, clamped to 0, and the answer is
	// 0 with no error — the link is simply too small for this class.
	z, err := models.NewZ(0.975)
	if err != nil {
		t.Fatal(err)
	}
	tiny := Link{CellsPerSec: z.Mean() / (2 * models.Ts), Ts: models.Ts, Delay: 0.02}
	if tiny.CellsPerFrame() >= z.Mean() {
		t.Fatalf("test setup: link %v cells/frame should be below the class mean %v",
			tiny.CellsPerFrame(), z.Mean())
	}
	extra, err := MaxAdditional(core.Mix{{Model: z, Count: 0}}, z, tiny, 1e-6)
	if err != nil {
		t.Fatalf("oversized class must not error: %v", err)
	}
	if extra != 0 {
		t.Fatalf("got %d connections of a class that exceeds capacity, want 0", extra)
	}
}
