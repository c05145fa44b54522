package pmrace

import (
	"math"
	"testing"

	"hawkset/internal/apps"
	"hawkset/internal/ycsb"

	_ "hawkset/internal/apps/fastfair"
)

// TestExpectedTimeToRaceReproducesPaper checks the closed form against the
// three entries of Table 3 (240 seeds).
func TestExpectedTimeToRaceReproducesPaper(t *testing.T) {
	// PMRace, bug #1: 9 racy of 240, 600 s per execution → 69900.00 s.
	if got := ExpectedTimeToRace(231, 9, 600); math.Abs(got-69900) > 0.01 {
		t.Errorf("PMRace #1 = %.2f, want 69900.00", got)
	}
	// HawkSet, bug #1: 110 racy of 240, 6.65 s per execution → ≈439 s.
	if got := ExpectedTimeToRace(130, 110, 6.65); math.Abs(got-438.90) > 0.5 {
		t.Errorf("HawkSet #1 = %.2f, want ≈439", got)
	}
	// HawkSet, bug #2: 115 racy of 240 → ≈422 s.
	if got := ExpectedTimeToRace(125, 115, 6.65); math.Abs(got-422.28) > 0.5 {
		t.Errorf("HawkSet #2 = %.2f, want ≈422", got)
	}
	// PMRace, bug #2: never found → ∞.
	if got := ExpectedTimeToRace(240, 0, 600); !math.IsInf(got, 1) {
		t.Errorf("PMRace #2 = %v, want +Inf", got)
	}
	// Speedup for bug #1 ≈ 159×.
	speedup := ExpectedTimeToRace(231, 9, 600) / ExpectedTimeToRace(130, 110, 6.65)
	if speedup < 150 || speedup > 170 {
		t.Errorf("speedup = %.1f, want ≈159", speedup)
	}
}

// TestObservesPlantedRace: with enough delay injection, the observation
// detector catches a blatant dirty-read race in Fast-Fair (bug #5-style
// always-on unpersisted stores are absent there, so use a workload large
// enough to split nodes).
func TestObservesPlantedRace(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	spec := ycsb.DefaultSpec(800)
	spec.LoadCount = 100
	spec.KeySpace = 1 << 10
	w := ycsb.Generate(spec, 5)
	res, err := Detect(e, w, Config{Seed: 5, Executions: 4, DelayProb: 0.05, DelaySteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 4 {
		t.Fatalf("Executions = %d", res.Executions)
	}
	if len(res.Observations) == 0 {
		t.Fatal("no dirty reads observed despite unpersisted split pointers and delay injection")
	}
}

// TestFixedVariantHasFewerObservations is indirect: the Detect API always
// runs the buggy variant, so instead check MatchesBug filtering.
func TestMatchesBug(t *testing.T) {
	e, err := apps.Lookup("Fast-Fair")
	if err != nil {
		t.Fatal(err)
	}
	spec := ycsb.DefaultSpec(800)
	spec.LoadCount = 100
	spec.KeySpace = 1 << 10
	w := ycsb.Generate(spec, 7)
	res, err := Detect(e, w, Config{Seed: 7, Executions: 4, DelayProb: 0.05, DelaySteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchesBug("no-such-func", "nope") {
		t.Fatal("MatchesBug matched a nonexistent function pair")
	}
}
