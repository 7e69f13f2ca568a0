package fleet

import (
	"runtime"
	"testing"
)

// The deterministic half of the performance ledger: what a fleet run costs per
// application in heap allocations, route walks and fired events, on the
// benchmark script and on the migration and open-loop fixtures. None of it is
// wall-clock, so none of it depends on the host; ms/app is read with
// ./benchmark (paired, calibrated) and BenchmarkFleet (the curve over N).
// Allocation limits are 1.2 × the figures on file for these runs when the tests
// were written (EXPERIMENTS.md "Fleet cost curve").

// migrationBenchScenario is the canonical migration fixture: n apps,
// region-collapse contention (all groups crushed) on the first quarter of
// them, migration enabled, spare-router headroom to migrate into.
func migrationBenchScenario(n int, seed uint64) ScenarioOptions {
	crushApps := max(n/4, 1)
	return ScenarioOptions{
		Apps: n, Seed: seed, Duration: 600, Adaptive: true,
		SpareRouters:   2 * crushApps,
		CrushAllGroups: true, CrushApps: crushApps,
		CrushStart: 120, CrushStagger: 20, CrushDuration: 360,
		Migration: MigrationPolicy{Enabled: true},
	}
}

// rankedMigrationBenchScenario is migrationBenchScenario with
// measurement-driven targeting: the region health index (batched Remos probes
// every decision tick), PlaceRanked and the reservation/coordination layer on
// the same region-collapse workload.
func rankedMigrationBenchScenario(n int, seed uint64) ScenarioOptions {
	opts := migrationBenchScenario(n, seed)
	opts.Migration.Ranked = true
	return opts
}

// openLoopBenchScenario is the canonical open-loop fixture: n apps of `users`
// modeled users each, Poisson arrivals sized so that every app offers the same
// 8 req/s aggregate whatever the population. The engine's cost is per flow
// class, not per user.
func openLoopBenchScenario(n, users int, seed uint64) ScenarioOptions {
	return ScenarioOptions{
		Apps: n, Seed: seed, Duration: 300, Adaptive: true,
		CrushStart: -1,
		App:        AppSpec{Arrivals: ArrivalSpec{Lambda: 8.0 / float64(users)}},
		OpenLoop: OpenLoopPolicy{Enabled: true, Users: users,
			Scale: ScalePolicy{Enabled: true}},
	}
}

// runCost is one scenario run and what it cost per admitted app.
type runCost struct {
	*ScenarioResult
	allocs, mb, walks float64
}

// measure runs opts to completion with every app admitted and reads the heap
// and routing counters around it. The tests of this package run one at a time
// on one goroutine, so the process-wide heap counters are the run's own to
// within a few objects.
func measure(t *testing.T, opts ScenarioOptions) runCost {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunScenario(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Summaries); got != opts.Apps {
		t.Fatalf("admitted %d apps, want %d", got, opts.Apps)
	}
	n := float64(opts.Apps)
	c := runCost{
		ScenarioResult: res,
		allocs:         float64(after.Mallocs-before.Mallocs) / n,
		mb:             float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6,
		walks:          float64(res.Grid.Net.RouteStats().Walks) / n,
	}
	t.Logf("N=%d: %.1f allocations, %.4f MB, %.2f route walks and %.0f fired events per app",
		opts.Apps, c.allocs, c.mb, c.walks, float64(res.Fleet.K.Executed())/n)
	return c
}

// TestFleetCostIsFlatPerApp holds the benchmark script's per-app cost at N=32
// and its growth to N=128. Route walks are exact under a seed: a change that
// moves them changed what placement or monitoring measures. Allocations move with
// map growth, so they get a ceiling. From N=32 to N=128 neither may grow by a
// quarter: something on the admission or monitoring path would be scaling with
// the grid, not the app. (Fired events per app are held flat by
// TestFleetKernelWorkIsFlatPerApp.)
func TestFleetCostIsFlatPerApp(t *testing.T) {
	small := measure(t, benchScript(32))
	if small.walks != 263.5 {
		t.Errorf("N=32 seed 1: %.4f route walks per app, want 263.5", small.walks)
	}
	if small.allocs > 2106 {
		t.Errorf("N=32 seed 1: %.0f allocations per app, limit 2106", small.allocs)
	}
	if testing.Short() {
		return
	}
	const growth = 1.25
	big := measure(t, benchScript(128))
	if big.walks > growth*small.walks {
		t.Errorf("route walks per app grow with the fleet: %.1f at N=32, %.1f at N=128", small.walks, big.walks)
	}
	if big.allocs > growth*small.allocs || big.mb > growth*small.mb {
		t.Errorf("allocation per app grows with the fleet: %.0f allocations and %.4f MB at N=32, %.0f and %.4f at N=128",
			small.allocs, small.mb, big.allocs, big.mb)
	}
}

// TestMigrationFixturesCost holds the two migration fixtures at N=16 seed 1 to
// exactly the four migrations they make and to an allocation ceiling. The
// ranked fixture's is 1.02 ×, not 1.2 ×: its figure was taken before the
// observability plane existed and the run is untraced, so the margin is all a
// disabled tracer may cost.
func TestMigrationFixturesCost(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   ScenarioOptions
		allocs float64
	}{
		{"unranked", migrationBenchScenario(16, 1), 3650},
		{"ranked", rankedMigrationBenchScenario(16, 1), 3042},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := measure(t, tc.opts)
			if m := Aggregate(got.Summaries).Migrations; m != 4 {
				t.Errorf("%d migrations, want 4", m)
			}
			if got.allocs > tc.allocs {
				t.Errorf("%.0f allocations per app, limit %.0f", got.allocs, tc.allocs)
			}
		})
	}
}

// TestOpenLoopCostIgnoresPopulation: the modeled population is bookkeeping.
// One aggregated flow class per (client-region, server-group) pair carries
// however many users a row models, so a hundred times the users deliver the
// same responses for the same fired events and the same allocations.
func TestOpenLoopCostIgnoresPopulation(t *testing.T) {
	const apps = 64
	var fired []uint64
	for _, users := range []int{10_000, 1_000_000} {
		got := measure(t, openLoopBenchScenario(apps, users, 1))
		if r := Aggregate(got.Summaries).Responses; r != 2360*apps {
			t.Errorf("users=%d: %d responses, want %d (2360 per app)", users, r, 2360*apps)
		}
		if got.allocs > 1666 {
			t.Errorf("users=%d: %.0f allocations per app, limit 1666", users, got.allocs)
		}
		fired = append(fired, got.Fleet.K.Executed())
	}
	if fired[0] != fired[1] {
		t.Errorf("fired events scale with the modeled population: %d at 10k users, %d at 1M", fired[0], fired[1])
	}
}
