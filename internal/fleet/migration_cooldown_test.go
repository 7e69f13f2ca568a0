package fleet

import (
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// TestMigrationCooldownAndCap pins the controller's three limits on repeat
// migration: the cooldown after a completed cutover, the patience re-armed
// at cutover, and the cap of maxMigrationsPerApp completed migrations. A
// ticker re-crushes the app wherever it currently runs whenever no drain is
// in flight, so the app stays degraded for the whole run and only the
// limits decide when, and whether, it migrates again.
func TestMigrationCooldownAndCap(t *testing.T) {
	for _, tc := range []struct {
		cooldown           float64
		decided, completed []float64
	}{
		{200, []float64{210, 450, 690}, []float64{240, 480, 720}},
		{60, []float64{210, 315, 420}, []float64{240, 345, 450}},
	} {
		k := sim.NewKernel()
		grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 24, HostsPerRouter: 4, Seed: 3})
		f, err := New(k, grid, 3, Config{
			Adaptive: true, HostCapacity: 1,
			Migration: MigrationPolicy{Enabled: true, Cooldown: tc.cooldown},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := f.Admit(AppSpec{Name: "x"})
		if err != nil {
			t.Fatal(err)
		}
		k.Ticker(150, 10, func(sim.Time) {
			if f.MigrationsInFlight() == 0 {
				f.RestorePrimary("x")
				if err := f.CrushServers("x"); err != nil {
					t.Errorf("crush: %v", err)
				}
			}
		})
		k.Run(3000)

		// The cap, not a recovery, is what stops a fourth migration: the
		// app is still crushed and its unhealthy streak is past patience.
		if len(a.crushed) == 0 || a.health.streak < f.Cfg.Migration.Patience {
			t.Errorf("cooldown %g: app not degraded at the end (crushed links %d, streak %d)",
				tc.cooldown, len(a.crushed), a.health.streak)
		}
		if len(a.Migrations) != len(tc.decided) {
			t.Fatalf("cooldown %g: %d migration records %+v, want %d", tc.cooldown, len(a.Migrations), a.Migrations, len(tc.decided))
		}
		for i, m := range a.Migrations {
			if m.DecidedAt != tc.decided[i] || m.CompletedAt != tc.completed[i] {
				t.Errorf("cooldown %g: migration %d decided %g completed %g, want %g and %g",
					tc.cooldown, i, m.DecidedAt, m.CompletedAt, tc.decided[i], tc.completed[i])
			}
		}
	}
}
