package fleet

import (
	"reflect"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// TestMigrationTargetingEquivalence extends the monitoring/solver oracle
// pattern to the migration controller: with ranking disabled (RegionRank
// nil everywhere, no region probes) the coordinated controller must be
// byte-identical to the PR 4 reference behaviour — staged avoid-set
// targeting with no concurrency cap, which is what a MaxConcurrent no run
// can reach leaves of the controller. Both sides run over the full scenario
// catalog; entries that exercise the new behavior by design — ranked
// targeting, or an explicitly binding MaxConcurrent — are excluded, because
// there the two controllers are *supposed* to differ.
func TestMigrationTargetingEquivalence(t *testing.T) {
	for _, e := range Catalog() {
		if e.Opts.Migration.Ranked || e.Opts.Migration.MaxConcurrent != 0 {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			coordinated, err := RunScenario(e.Opts)
			if err != nil {
				t.Fatal(err)
			}
			legacyOpts := e.Opts
			legacyOpts.Migration.MaxConcurrent = 1 << 30
			legacy, err := RunScenario(legacyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(coordinated.Summaries, legacy.Summaries) {
				t.Fatalf("summaries diverged from the legacy avoid-set controller:\ncoordinated:\n%s\nlegacy:\n%s",
					Table(coordinated.Summaries), Table(legacy.Summaries))
			}
			if ct, lt := coordinated.Table(), legacy.Table(); ct != lt {
				t.Fatalf("summary tables diverged:\n%s\nvs\n%s", ct, lt)
			}
			// Migration records must match in every timing detail, and none
			// may claim ranked targeting on either path.
			for _, name := range coordinated.Fleet.Apps() {
				cm := coordinated.Fleet.App(name).Migrations
				lm := legacy.Fleet.App(name).Migrations
				if len(cm) != len(lm) {
					t.Fatalf("%s: migration counts differ: %d vs %d", name, len(cm), len(lm))
				}
				for i := range cm {
					if cm[i].Ranked || lm[i].Ranked {
						t.Errorf("%s migration %d claims ranked targeting with ranking disabled", name, i)
					}
					if cm[i].DecidedAt != lm[i].DecidedAt || cm[i].CompletedAt != lm[i].CompletedAt ||
						cm[i].FromManager != lm[i].FromManager || cm[i].ToManager != lm[i].ToManager {
						t.Errorf("%s migration %d differs: %+v vs %+v", name, i, cm[i], lm[i])
					}
				}
			}
		})
	}
}

// TestRankingOffIssuesNoProbes guards the off-path purity of the region
// health machinery: with migration enabled but Ranked false, no region
// health index exists and the Remos collector sees exactly the query load
// of the pre-ranking controller (no prequeried probe pairs, no batches).
func TestRankingOffIssuesNoProbes(t *testing.T) {
	run := func(ranked bool) (*Fleet, uint64, uint64) {
		k := sim.NewKernel()
		grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 8, HostsPerRouter: 3, Seed: 6})
		pol := MigrationPolicy{Enabled: true, Ranked: ranked}
		f, err := New(k, grid, 6, Config{Adaptive: true, HostCapacity: 1, Migration: pol})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Admit(AppSpec{Name: "x"}); err != nil {
			t.Fatal(err)
		}
		k.Run(300)
		f.Stop()
		k.Run(400)
		return f, f.Rm.Queries(), f.Rm.ColdQueries()
	}
	fOff, qOff, cOff := run(false)
	if fOff.RegionHealth() != nil {
		t.Error("region health index exists with ranking disabled")
	}
	fOn, qOn, cOn := run(true)
	if fOn.RegionHealth() == nil {
		t.Fatal("region health index missing with ranking enabled")
	}
	if qOn <= qOff {
		t.Errorf("ranked run issued no extra Remos queries (%d vs %d) — the index is not measuring", qOn, qOff)
	}
	if cOn <= cOff {
		t.Errorf("ranked run started no extra collections (%d vs %d) — probe pairs were not pre-queried", cOn, cOff)
	}
}

// TestPlaceRankedNilIsPlace: the scheduler-level half of the equivalence
// contract — an empty rank degenerates to exactly Place.
func TestPlaceRankedNilIsPlace(t *testing.T) {
	k := sim.NewKernel()
	spec := AppSpec{Name: "x"}.withDefaults().Spec()
	build := func() *Scheduler {
		grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 4, Seed: 9})
		return NewScheduler(grid, 2, nil)
	}
	a := build()
	b := build()
	pa, err := a.Place(spec)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.PlaceRanked(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("PlaceRanked(nil) diverged from Place:\n%+v\nvs\n%+v", pa, pb)
	}
}
