package fleet

import (
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// TestThunderingHerdReservationsRoundTrip is the coordination-layer leak
// test: eight applications degrade at the same instant and compete for
// spare capacity sized for two. The MaxConcurrent cap must hold at every
// point of the run, and after the herd retires every staged reservation
// must have been committed or returned — FreeSlots round-trips exactly.
func TestThunderingHerdReservationsRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 21, HostsPerRouter: 4, Seed: 17})
	pol := MigrationPolicy{Enabled: true, Ranked: true, MaxConcurrent: 2, Cooldown: 120}
	f, err := New(k, grid, 17, Config{Adaptive: true, HostCapacity: 1, Migration: pol})
	if err != nil {
		t.Fatal(err)
	}
	const herd = 8
	for i := 0; i < herd; i++ {
		if _, err := f.Admit(AppSpec{}); err != nil {
			t.Fatal(err)
		}
	}
	names := f.Apps()
	k.At(150, func() {
		for _, name := range names {
			_ = f.CrushServers(name)
		}
	})
	k.At(600, func() {
		for _, name := range names {
			f.RestorePrimary(name)
		}
	})
	k.Ticker(1, 1, func(now float64) {
		if got := f.MigrationsInFlight(); got > pol.MaxConcurrent {
			t.Errorf("t=%.0f: %d migrations in flight, cap %d", now, got, pol.MaxConcurrent)
		}
	})
	k.Run(800)
	if tot := Aggregate(f.Summaries()); tot.Migrations < 2 {
		t.Fatalf("herd completed only %d migrations; the scenario is not exercising the reservation layer", tot.Migrations)
	}
	if got := f.PeakConcurrentMigrations(); got > pol.MaxConcurrent {
		t.Errorf("peak concurrent migrations = %d, cap %d", got, pol.MaxConcurrent)
	}
	// Retire the herd (aborting any still-draining migration) and assert the
	// scheduler's ledger round-tripped exactly: only the Remos slot is held.
	k.At(810, func() {
		for _, name := range names {
			if err := f.Retire(name); err != nil {
				t.Errorf("retiring %s: %v", name, err)
			}
		}
	})
	k.Run(900)
	if got, want := f.Sch.FreeSlots(), len(grid.Hosts)-1; got != want {
		t.Errorf("free slots after the herd retired = %d, want %d: a reservation leaked", got, want)
	}
	if got := f.Gauges.Leases(); got != 0 {
		t.Errorf("gauge leases after retirement = %d, want 0", got)
	}
	if got := f.ProbeBus.Tenants() + f.ReportBus.Tenants(); got != 0 {
		t.Errorf("bus tenants after retirement = %d, want 0", got)
	}
}

// TestRankedMigrateThenRetireNoLeaks is the ranked-targeting variant of the
// migrate-then-retire leak test: a manual migration under an active region
// health index, then retirement, must return every slot, shard and lease.
func TestRankedMigrateThenRetireNoLeaks(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 8, HostsPerRouter: 3, Seed: 2})
	pol := MigrationPolicy{Enabled: true, Ranked: true}
	f, err := New(k, grid, 2, Config{Adaptive: true, HostCapacity: 1, Migration: pol})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	k.At(200, func() {
		if err := f.Migrate("x"); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.At(400, func() {
		if err := f.Retire("x"); err != nil {
			t.Errorf("retire: %v", err)
		}
	})
	k.Run(600)
	if got := len(a.Migrations); got != 1 || !a.Migrations[0].Completed() {
		t.Fatalf("migrations = %+v, want one completed", a.Migrations)
	}
	if got, want := f.Sch.FreeSlots(), len(grid.Hosts)-1; got != want {
		t.Errorf("free slots = %d, want %d", got, want)
	}
	if got := f.Gauges.Deployed(); got != 0 {
		t.Errorf("gauges deployed = %d, want 0", got)
	}
	if got := f.ProbeBus.Tenants() + f.ReportBus.Tenants(); got != 0 {
		t.Errorf("bus tenants = %d, want 0", got)
	}
}

// TestMigrationPlacementFailureHoldsNothing covers the placement-failure
// path of the reservation layer: on a grid with no spare capacity both the
// ranked and the avoid-set placements fail, the attempt is recorded with an
// error, and the scheduler ledger is untouched (nothing was staged).
func TestMigrationPlacementFailureHoldsNothing(t *testing.T) {
	k := sim.NewKernel()
	// Exactly enough hosts for the app plus the Remos collector: a
	// re-placement can never fit.
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 3, HostsPerRouter: 3, Seed: 3})
	pol := MigrationPolicy{Enabled: true, Ranked: true}
	f, err := New(k, grid, 3, Config{Adaptive: true, HostCapacity: 1, Migration: pol})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := -1
	k.At(200, func() {
		freeBefore = f.Sch.FreeSlots()
		if err := f.Migrate("x"); err == nil {
			t.Error("migrate succeeded on a full grid")
		}
	})
	k.Run(400)
	if got := f.Sch.FreeSlots(); got != freeBefore {
		t.Errorf("free slots changed across a failed placement: %d -> %d", freeBefore, got)
	}
	if a.pending != nil {
		t.Error("failed placement left drain state behind")
	}
	if got := len(a.Migrations); got != 1 || a.Migrations[0].Err == nil {
		t.Fatalf("migrations = %+v, want one failed attempt", a.Migrations)
	}
	if f.MigrationsInFlight() != 0 {
		t.Errorf("migrations in flight = %d after a failed placement", f.MigrationsInFlight())
	}
}
