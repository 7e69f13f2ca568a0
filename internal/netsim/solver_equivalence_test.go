package netsim_test

import (
	"reflect"
	"testing"

	"archadapt/internal/fleet"
	"archadapt/internal/netsim"
)

// TestSolverEquivalenceFleetSummaries runs the same fleet scenario with the
// incremental region solver and with the global solve forced
// (ForceGlobalReflow on the run handle's network between StartScenario and
// Finish — before the first flow and the first solve, so the whole run is
// solved globally), and requires byte-identical summaries: region
// partitioning must not change simulation results, only their cost.
// (Byte-identity against the actual
// pre-rewrite PR 1 tree was established by diffing cmd/fleet and
// cmd/archadapt output during the rewrite; this test is the in-tree
// regression guard for the partitioning itself.)
func TestSolverEquivalenceFleetSummaries(t *testing.T) {
	base := fleet.ScenarioOptions{
		Apps: 4, Seed: 7, Duration: 300, Adaptive: true,
		CrushStart: 120, CrushStagger: 5, CrushDuration: 120,
	}
	incr, err := fleet.RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	run, err := fleet.StartScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if net := run.Grid.Net; net.ActiveFlows() != 0 || net.Stats().Solves != 0 {
		t.Fatalf("StartScenario returned with %d active flows and %d solves: part of the run was already solved incrementally",
			net.ActiveFlows(), net.Stats().Solves)
	}
	netsim.ForceGlobalReflow(run.Grid.Net)
	glob := run.Finish()
	if !reflect.DeepEqual(incr.Summaries, glob.Summaries) {
		t.Fatalf("summaries diverged between solvers:\nincremental:\n%s\nglobal:\n%s",
			fleet.Table(incr.Summaries), fleet.Table(glob.Summaries))
	}
	if it, gt := fleet.Table(incr.Summaries), fleet.Table(glob.Summaries); it != gt {
		t.Fatalf("summary tables diverged:\n%s\nvs\n%s", it, gt)
	}
	// Same-seed determinism still holds under the incremental solver.
	again, err := fleet.RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(incr.Summaries, again.Summaries) {
		t.Fatal("incremental solver runs are not deterministic across same-seed runs")
	}
}
