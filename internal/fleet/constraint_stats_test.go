package fleet

import (
	"testing"

	"archadapt/internal/constraint"
)

// benchScript is the benchmark fleet script (BenchmarkFleet's scenario) at n
// apps, seed 1.
func benchScript(n int) ScenarioOptions {
	return ScenarioOptions{
		Apps: n, Seed: 1, Duration: 600, Adaptive: true,
		CrushStart: 120, CrushStagger: 5, CrushDuration: 240,
	}
}

// runBenchScript runs benchScript(n).
func runBenchScript(t *testing.T, n int) *ScenarioResult {
	t.Helper()
	res, err := RunScenario(benchScript(n))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fleetConstraintStats sums the constraint registries' work counters over the
// fleet after the benchmark script.
func fleetConstraintStats(t *testing.T, n int) (sum constraint.Stats, ticks uint64) {
	t.Helper()
	res := runBenchScript(t, n)
	for _, name := range res.Fleet.Apps() {
		mgr := res.Fleet.App(name).Mgr
		st := mgr.Registry.Stats()
		sum.Checks += st.Checks
		sum.Evaluated += st.Evaluated
		sum.Reused += st.Reused
		sum.ScopeRebuilds += st.ScopeRebuilds
		ticks += mgr.Checks()
	}
	return sum, ticks
}

// TestFleetConstraintWorkIsChangeDriven pins the constraint layer's work
// counters on the benchmark script: the control loop ticks every 2 s but
// gauges report every 5 s, so most of the verdicts a tick asks for are still
// valid (at the parent of this test every one of the 25 920 was evaluated).
// The counters are deterministic; a change that moves them changed what the
// layer evaluates, and says so here. Per app the work must not grow with the
// fleet.
func TestFleetConstraintWorkIsChangeDriven(t *testing.T) {
	got, ticks := fleetConstraintStats(t, 16)
	want := constraint.Stats{Checks: 4320, Evaluated: 3815, Reused: 22105, ScopeRebuilds: 48}
	if got != want {
		t.Errorf("N=16 seed 1: constraint stats %+v over %d ticks, want %+v", got, ticks, want)
	}
	if got.Reused < 3*got.Evaluated {
		t.Errorf("only %d of %d verdicts were reused", got.Reused, got.Reused+got.Evaluated)
	}
	if testing.Short() {
		return
	}
	big, _ := fleetConstraintStats(t, 64)
	if perApp16, perApp64 := float64(got.Evaluated)/16, float64(big.Evaluated)/64; perApp64 > 1.02*perApp16 {
		t.Errorf("evaluations per app grow with the fleet: %.1f at N=16, %.1f at N=64", perApp16, perApp64)
	}
}
