package fleet

import (
	"strings"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// regionCollapseOpts is the acceptance scenario: app00's entire region
// (every server group's access links) is crushed for most of the run, so
// intra-app repair has nowhere good to move clients and only a fleet-level
// re-placement helps.
func regionCollapseOpts(migrate bool) ScenarioOptions {
	opts := ScenarioOptions{
		Apps: 4, Seed: 7, Duration: 900, Adaptive: true,
		SpareRouters:   4,
		CrushAllGroups: true, CrushApps: 1,
		CrushStart: 150, CrushDuration: 600,
	}
	if migrate {
		opts.Migration = MigrationPolicy{Enabled: true}
	}
	return opts
}

// TestMigrationRescuesRegionCollapse is the acceptance test: under a
// region-wide degradation, the migrating fleet must show materially better
// per-app summaries than the same-seed migration-disabled control, asserted
// on the CompareTable pairing.
func TestMigrationRescuesRegionCollapse(t *testing.T) {
	pinned, err := RunScenario(regionCollapseOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	migr, err := RunScenario(regionCollapseOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	pairs := ComparePairs(pinned.Summaries, migr.Summaries)
	if len(pairs) != 4 {
		t.Fatalf("paired %d apps, want 4", len(pairs))
	}

	victim := pairs[0] // app00 is the crushed app
	if victim.B.Migrations == 0 {
		t.Fatalf("app00 never migrated; records: %+v", migr.Fleet.App("app00").Migrations)
	}
	if victim.A.FracAboveBound < 0.25 {
		t.Errorf("pinned app00 >bound only %.1f%%: the collapse is not material",
			100*victim.A.FracAboveBound)
	}
	// The rescue must be material: the migrating run spends well under half
	// as much of the run above bound as the pinned control.
	if victim.B.FracAboveBound >= 0.5*victim.A.FracAboveBound {
		t.Errorf("migration did not materially help: >bound pinned %.1f%% vs migrating %.1f%%",
			100*victim.A.FracAboveBound, 100*victim.B.FracAboveBound)
	}
	// The migrated app must keep serving — more responses than the pinned
	// run, whose clients wedge against the crushed region.
	if victim.B.Responses <= victim.A.Responses {
		t.Errorf("migrating app00 served %d responses, pinned %d — expected more",
			victim.B.Responses, victim.A.Responses)
	}
	// Untouched apps must not migrate.
	for _, p := range pairs[1:] {
		if p.B.Migrations != 0 {
			t.Errorf("%s migrated %d times despite being healthy", p.Name, p.B.Migrations)
		}
	}
	// The rendered CompareTable carries the same data (smoke).
	table := CompareTable(pinned.Summaries, migr.Summaries)
	if !strings.Contains(table, "app00") {
		t.Fatalf("CompareTable missing app00:\n%s", table)
	}
}

// TestMigrationScenarioDeterministic: migration decisions, drains and
// cutovers all run on the shared kernel, so same-seed migrating runs must be
// identical — including the recorded migration times.
func TestMigrationScenarioDeterministic(t *testing.T) {
	opts := migrationBenchScenario(8, 3)
	r1, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if t1, t2 := r1.Table(), r2.Table(); t1 != t2 {
		t.Fatalf("summaries differ between identical migrating runs:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}
	m1 := r1.Fleet.App("app00").Migrations
	m2 := r2.Fleet.App("app00").Migrations
	if len(m1) != len(m2) {
		t.Fatalf("migration counts differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i].DecidedAt != m2[i].DecidedAt || m1[i].CompletedAt != m2[i].CompletedAt {
			t.Fatalf("migration %d timing differs: %+v vs %+v", i, m1[i], m2[i])
		}
	}
}

// TestMigrationDisabledAddsNothing guards the byte-identical contract for
// the default configuration: with the policy disabled the fleet must not
// subscribe to any report shard, keep no health state, and schedule no
// decision ticks — the run is exactly the pre-migration control plane (the
// solver and monitoring equivalence tests cover the rest of the path).
func TestMigrationDisabledAddsNothing(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: 1})
	f, err := New(k, grid, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if f.stopMigrate != nil {
		t.Error("migration ticker scheduled despite the policy being disabled")
	}
	if a.health != nil {
		t.Error("health state attached despite the policy being disabled")
	}
	// The report shard must carry exactly one subscription: the manager's.
	if got := a.report.Subscribers(); got != 1 {
		t.Errorf("report shard has %d subscribers, want 1 (manager only)", got)
	}
}

// TestMigrateThenRetireNoLeaks walks one app through a manual migration and
// a subsequent retirement and asserts nothing leaks anywhere: no gauges, no
// gauge leases, no bus tenants, and every scheduler slot back except the
// Remos collector's.
func TestMigrateThenRetireNoLeaks(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 8, HostsPerRouter: 3, Seed: 2})
	f, err := New(k, grid, 2, Config{Adaptive: true, HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	oldManager := a.Assign.ManagerHost
	gaugesBefore := f.Gauges.Deployed()

	k.At(200, func() {
		if err := f.Migrate("x"); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.Run(400)

	if got := len(a.Migrations); got != 1 || !a.Migrations[0].Completed() {
		t.Fatalf("migrations = %+v, want one completed", a.Migrations)
	}
	if a.Assign.ManagerHost == oldManager {
		t.Error("manager host unchanged after migration")
	}
	if a.pending != nil {
		t.Error("migration state not cleared after cutover")
	}
	if got := f.Gauges.Deployed(); got != gaugesBefore {
		t.Errorf("gauges deployed = %d after migration, want %d", got, gaugesBefore)
	}
	if got := f.Gauges.Leases(); got != 1 {
		t.Errorf("gauge leases = %d after migration, want 1", got)
	}
	// The app must still be serving from its new region.
	respAtMigration := a.Sys.Client("C1").Responses()
	k.Run(600)
	if got := a.Sys.Client("C1").Responses(); got <= respAtMigration {
		t.Errorf("no responses after migration: %d -> %d", respAtMigration, got)
	}

	k.At(700, func() {
		if err := f.Retire("x"); err != nil {
			t.Errorf("retire: %v", err)
		}
	})
	k.Run(900)

	if got := f.Gauges.Deployed(); got != 0 {
		t.Errorf("gauges deployed = %d after retirement, want 0", got)
	}
	if got := f.Gauges.Leases(); got != 0 {
		t.Errorf("gauge leases = %d after retirement, want 0", got)
	}
	if got := f.ProbeBus.Tenants(); got != 0 {
		t.Errorf("probe bus tenants = %d after retirement, want 0", got)
	}
	if got := f.ReportBus.Tenants(); got != 0 {
		t.Errorf("report bus tenants = %d after retirement, want 0", got)
	}
	total := len(grid.Hosts) * 1
	if got := f.Sch.FreeSlots(); got != total-1 {
		t.Errorf("free slots = %d after retirement, want %d (all but Remos)", got, total-1)
	}
}

// TestRetireWhileDraining retires an application mid-drain (migration
// decided, cutover not yet executed) and asserts the migration aborts
// cleanly: the reserved target slots are returned, no shards, leases or
// gauges leak, and the cutover never runs.
func TestRetireWhileDraining(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 8, HostsPerRouter: 3, Seed: 4})
	f, err := New(k, grid, 4, Config{Adaptive: true, HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Crush every group so requests wedge and the drain cannot finish fast.
	k.At(150, func() { _ = f.CrushServers("x") })
	k.At(200, func() {
		if err := f.Migrate("x"); err != nil {
			t.Errorf("migrate: %v", err)
		}
		if a.pending == nil {
			t.Error("migrate did not enter the draining state")
		}
	})
	// Retire while the drain poller is still waiting on wedged requests.
	k.At(202, func() {
		if err := f.Retire("x"); err != nil {
			t.Errorf("retire mid-drain: %v", err)
		}
	})
	k.Run(400)

	if got := len(a.Migrations); got != 1 {
		t.Fatalf("migrations = %+v, want exactly one aborted record", a.Migrations)
	}
	if a.Migrations[0].Completed() {
		t.Error("migration completed despite mid-drain retirement")
	}
	if a.pending != nil {
		t.Error("migration state not cleared by retirement")
	}
	if got := f.Gauges.Deployed(); got != 0 {
		t.Errorf("gauges deployed = %d, want 0", got)
	}
	if got := f.Gauges.Leases(); got != 0 {
		t.Errorf("gauge leases = %d, want 0", got)
	}
	if got, want := f.ProbeBus.Tenants()+f.ReportBus.Tenants(), 0; got != want {
		t.Errorf("bus tenants = %d, want 0", got)
	}
	total := len(grid.Hosts)
	if got := f.Sch.FreeSlots(); got != total-1 {
		t.Errorf("free slots = %d, want %d: the pending assignment leaked", got, total-1)
	}
}

// TestCatalogScenariosRun smoke-tests every catalog entry at reduced
// duration: admissions succeed, runs are error-free, and the migration entry
// actually migrates.
func TestCatalogScenariosRun(t *testing.T) {
	for _, e := range Catalog() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opts := e.Opts
			res, err := RunScenario(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Summaries) == 0 {
				t.Fatal("no applications admitted")
			}
			// diurnal oversubscribes its small grid on purpose;
			// overload-shed's admission gate rejects heavy apps by design.
			if rej := res.Fleet.Rejections(); len(rej) != 0 && e.Name != "diurnal" && e.Name != "overload-shed" {
				t.Fatalf("rejections: %+v", rej)
			}
			if e.Name == "region-collapse" {
				if tot := Aggregate(res.Summaries); tot.Migrations == 0 {
					t.Error("region-collapse scenario completed no migrations")
				}
			}
		})
	}
}
