package netsim_test

import (
	"testing"

	"archadapt/internal/fleet"
)

// verifyEveryEvent runs a fleet scenario with the incremental solver checked
// against ReferenceRates before every kernel event and once at the end, at
// relative tolerance tol. It returns the events checked and how many of the
// checks found a rate that is not bit-identical to the reference.
func verifyEveryEvent(t *testing.T, opts fleet.ScenarioOptions, tol float64) (events, inexact int) {
	t.Helper()
	run, err := fleet.StartScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	net := run.Grid.Net
	check := func() {
		if net.VerifyReference(0) == nil {
			return
		}
		inexact++
		if err := net.VerifyReference(tol); err != nil {
			t.Fatalf("t=%.6f, event %d: %v", run.K.Now(), events, err)
		}
	}
	run.K.FireHook = func(float64) {
		check()
		events++
	}
	run.Finish()
	check()
	return events, inexact
}

// TestSolverEquivalenceFleetSummaries holds the incremental region solver to
// the retained global oracle bit for bit at every event of a 4-app fleet
// run: crushed primaries, repairs and moves dirty every kind of region.
func TestSolverEquivalenceFleetSummaries(t *testing.T) {
	events, inexact := verifyEveryEvent(t, fleet.ScenarioOptions{
		Apps: 4, Seed: 7, Duration: 300, Adaptive: true,
		CrushStart: 120, CrushStagger: 5, CrushDuration: 120,
	}, 0)
	t.Logf("%d events, each bit-identical to the reference", events)
	if events == 0 || inexact != 0 {
		t.Fatalf("%d events checked, %d inexact", events, inexact)
	}
}

// TestSolverReferenceCapacitySqueeze pins the one known deviation: on the
// fuzzed-capacity-squeeze catalog entry a few events' rates round one ulp
// away from the global fill (see regions.go). The bound is rounding-level,
// so a deviation that grows beyond rounding fails here.
func TestSolverReferenceCapacitySqueeze(t *testing.T) {
	var opts *fleet.ScenarioOptions
	for _, e := range fleet.Catalog() {
		if e.Name == "fuzzed-capacity-squeeze" {
			opts = &e.Opts
		}
	}
	if opts == nil {
		t.Fatal("no fuzzed-capacity-squeeze catalog entry")
	}
	events, inexact := verifyEveryEvent(t, *opts, 1e-15)
	t.Logf("%d events, %d of them one rounding away from the reference", events, inexact)
	if events == 0 {
		t.Fatal("no events checked")
	}
}
