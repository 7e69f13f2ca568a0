package fleet

import (
	"strings"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// cleanBackgrounds asserts no link carries leftover background load — the
// end state every balanced fault schedule must restore.
func cleanBackgrounds(t *testing.T, net *netsim.Network) {
	t.Helper()
	for id := 0; id < net.NumLinks(); id++ {
		for _, d := range []netsim.Dir{netsim.Fwd, netsim.Rev} {
			if bg := net.Background(netsim.LinkID(id), d); bg != 0 {
				t.Fatalf("link %d dir %d still carries %g bps background after balanced restores", id, d, bg)
			}
		}
	}
}

// TestRestoreWithoutFailErrors pins the unbalanced-call contract: restoring
// a backbone or region that was never failed returns an error and changes
// no link state, and a second restore after a balanced pair errors too.
func TestRestoreWithoutFailErrors(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 5, HostsPerRouter: 2, Seed: 1})
	f, err := New(k, grid, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}

	if err := f.RestoreBackbone(); err == nil {
		t.Error("RestoreBackbone on a healthy backbone: want error, got nil")
	}
	if err := f.RestoreBackboneFraction(0.5); err == nil {
		t.Error("RestoreBackboneFraction on a healthy backbone: want error, got nil")
	}
	if err := f.RestoreRegion(2); err == nil {
		t.Error("RestoreRegion on a healthy region: want error, got nil")
	}
	if err := f.RestoreRegionFraction(2, 0.5); err == nil {
		t.Error("RestoreRegionFraction on a healthy region: want error, got nil")
	}
	cleanBackgrounds(t, f.Net)

	// Balanced pairs succeed; the extra restore after them errors again.
	f.CrushBackbone(0.5, 30e3)
	if err := f.RestoreBackbone(); err != nil {
		t.Errorf("balanced RestoreBackbone: %v", err)
	}
	if err := f.RestoreBackbone(); err == nil {
		t.Error("second RestoreBackbone after balance: want error, got nil")
	}
	if err := f.FailRegion(1); err != nil {
		t.Errorf("FailRegion: %v", err)
	}
	if err := f.RestoreRegion(1); err != nil {
		t.Errorf("balanced RestoreRegion: %v", err)
	}
	if err := f.RestoreRegion(1); err == nil {
		t.Error("second RestoreRegion after balance: want error, got nil")
	}
	cleanBackgrounds(t, f.Net)

	if err := f.FailRegion(99); err == nil {
		t.Error("FailRegion(99) on a 5-router grid: want error, got nil")
	}
}

// TestFailuresNeverDisconnectTheGrid tries to reach netsim's "no route"
// panic the way a scenario could: fail every region and crush the whole
// backbone to nothing on generated grids of every shape up to 6 routers
// (one router and no backbone included, chords on), then route every
// ordered node pair through the three entry points that walk a route.
// Failures load links rather than remove them, so each pair must still
// route, over as many hops as before the failures, and measure at least
// the network's bandwidth floor.
func TestFailuresNeverDisconnectTheGrid(t *testing.T) {
	for routers := 1; routers <= 6; routers++ {
		for hosts := 1; hosts <= 3; hosts++ {
			k := sim.NewKernel()
			grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: routers, HostsPerRouter: hosts, CrossLinks: 2, Seed: uint64(routers*10 + hosts)})
			f, err := New(k, grid, 1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			n := grid.Net
			hops := make([]int, n.NumNodes()*n.NumNodes())
			for p := range hops {
				hops[p] = n.PathHops(netsim.NodeID(p/n.NumNodes()), netsim.NodeID(p%n.NumNodes()))
			}
			for r := 0; r < routers; r++ {
				if err := f.FailRegion(r); err != nil {
					t.Fatal(err)
				}
			}
			f.CrushBackbone(1, 0)
			for p := range hops {
				src, dst := netsim.NodeID(p/n.NumNodes()), netsim.NodeID(p%n.NumNodes())
				if src == dst {
					continue
				}
				if got := n.PathHops(src, dst); got != hops[p] || got == 0 {
					t.Fatalf("grid %dx%d: %d→%d routes over %d hops under failure, %d before", routers, hosts, src, dst, got, hops[p])
				}
				if bw := n.AvailBandwidth(src, dst); bw < netsim.MinFlowRate {
					t.Fatalf("grid %dx%d: %d→%d measures %v under failure", routers, hosts, src, dst, bw)
				}
				n.StartTransfer(src, dst, 1, "probe", nil).Cancel()
			}
		}
	}
}

// TestNestedRegionFailureHoldsUntilBalanced pins the refcount semantics: a
// region failed twice stays failed after one restore and recovers only when
// every failure is balanced; same for the backbone.
func TestNestedRegionFailureHoldsUntilBalanced(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 5, HostsPerRouter: 2, Seed: 2})
	f, err := New(k, grid, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	link := grid.AccessLink(grid.HostsByRouter[1][0])

	_ = f.FailRegion(1)
	_ = f.FailRegion(1) // nested
	if err := f.RestoreRegion(1); err != nil {
		t.Fatalf("first RestoreRegion: %v", err)
	}
	if bg := f.Net.Background(link, netsim.Fwd); bg == 0 {
		t.Error("region recovered after one restore despite a nested failure")
	}
	if err := f.RestoreRegion(1); err != nil {
		t.Fatalf("second RestoreRegion: %v", err)
	}
	cleanBackgrounds(t, f.Net)

	f.CrushBackbone(0.5, 30e3)
	f.CrushBackbone(0.3, 60e3) // nested; first call's parameters stay in force
	bb := grid.Backbone[0]
	if err := f.RestoreBackbone(); err != nil {
		t.Fatalf("first RestoreBackbone: %v", err)
	}
	if bg := f.Net.Background(bb, netsim.Fwd); bg == 0 {
		t.Error("backbone recovered after one restore despite a nested crush")
	}
	if err := f.RestoreBackbone(); err != nil {
		t.Fatalf("second RestoreBackbone: %v", err)
	}
	cleanBackgrounds(t, f.Net)
}

// TestPartialRestoreLiftsSubset pins the partial restores: half the failed
// links recover early, the rest stay starved until the balancing restore.
func TestPartialRestoreLiftsSubset(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 5, HostsPerRouter: 4, Seed: 3})
	f, err := New(k, grid, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}

	_ = f.FailRegion(2)
	hosts := grid.HostsByRouter[2]
	if err := f.RestoreRegionFraction(2, 0.5); err != nil {
		t.Fatalf("RestoreRegionFraction: %v", err)
	}
	lifted, still := 0, 0
	for _, h := range hosts {
		if f.Net.Background(grid.AccessLink(h), netsim.Fwd) == 0 {
			lifted++
		} else {
			still++
		}
	}
	if lifted != 2 || still != 2 {
		t.Fatalf("after a 0.5 partial restore of 4 links: %d lifted, %d still starved; want 2/2", lifted, still)
	}
	if err := f.RestoreRegion(2); err != nil {
		t.Fatalf("balancing RestoreRegion: %v", err)
	}
	cleanBackgrounds(t, f.Net)

	f.CrushBackbone(1.0, 30e3)
	if err := f.RestoreBackboneFraction(1.0); err != nil {
		t.Fatalf("RestoreBackboneFraction: %v", err)
	}
	cleanBackgrounds(t, f.Net) // all links lifted early...
	if err := f.RestoreBackbone(); err != nil {
		t.Fatalf("...but the crush still needs balancing: %v", err)
	}
}

// TestFaultInjectorRefcountRoundTrip is the refcount round-trip property
// test: seeded random interleavings of region failures, backbone crushes,
// per-app crushes, partial restores and deliberately unbalanced restores —
// after every legitimate injection is balanced, every link's background load
// must be exactly zero and the slot ledger must audit clean, and every
// unbalanced restore must have errored without corrupting anything.
func TestFaultInjectorRefcountRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRand(seed).Fork("faults:property")
		k := sim.NewKernel()
		grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: seed})
		f, err := New(k, grid, seed, Config{HostCapacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := f.Admit(AppSpec{Groups: 1, ServersPerGroup: 1, Clients: 1}); err != nil {
				t.Fatal(err)
			}
		}
		names := f.Apps()

		// Mirror bookkeeping: how many unbalanced failures this test holds.
		regionRefs := map[int]int{}
		backboneRefs := 0
		regions := len(grid.HostsByRouter)

		for op := 0; op < 60; op++ {
			switch rng.Intn(8) {
			case 0:
				r := rng.Intn(regions)
				if err := f.FailRegion(r); err != nil {
					t.Fatalf("seed %d: FailRegion(%d): %v", seed, r, err)
				}
				regionRefs[r]++
			case 1:
				f.CrushBackbone(0.2+0.6*rng.Float64(), 30e3)
				backboneRefs++
			case 2: // balance one open region failure, if any
				for r := 0; r < regions; r++ {
					if regionRefs[r] > 0 {
						if err := f.RestoreRegion(r); err != nil {
							t.Fatalf("seed %d: balanced RestoreRegion(%d): %v", seed, r, err)
						}
						regionRefs[r]--
						break
					}
				}
			case 3: // balance one open backbone crush, if any
				if backboneRefs > 0 {
					if err := f.RestoreBackbone(); err != nil {
						t.Fatalf("seed %d: balanced RestoreBackbone: %v", seed, err)
					}
					backboneRefs--
				}
			case 4: // stray restore of a region this test is not holding
				for r := 0; r < regions; r++ {
					if regionRefs[r] == 0 {
						if err := f.RestoreRegion(r); err == nil {
							t.Fatalf("seed %d: stray RestoreRegion(%d) did not error", seed, r)
						}
						break
					}
				}
			case 5: // partial restores: legal on held failures, errors otherwise
				r := rng.Intn(regions)
				err := f.RestoreRegionFraction(r, rng.Float64())
				if (err == nil) != (regionRefs[r] > 0) {
					t.Fatalf("seed %d: RestoreRegionFraction(%d) err=%v with refs=%d", seed, r, err, regionRefs[r])
				}
				if backboneRefs > 0 {
					if err := f.RestoreBackboneFraction(rng.Float64()); err != nil {
						t.Fatalf("seed %d: RestoreBackboneFraction: %v", seed, err)
					}
				}
			case 6:
				name := names[rng.Intn(len(names))]
				_ = f.CrushServers(name)
			case 7:
				f.RestorePrimary(names[rng.Intn(len(names))])
			}
		}

		// Drain: balance everything still open, restore the app crushes.
		for r := 0; r < regions; r++ {
			for ; regionRefs[r] > 0; regionRefs[r]-- {
				if err := f.RestoreRegion(r); err != nil {
					t.Fatalf("seed %d: draining RestoreRegion(%d): %v", seed, r, err)
				}
			}
		}
		for ; backboneRefs > 0; backboneRefs-- {
			if err := f.RestoreBackbone(); err != nil {
				t.Fatalf("seed %d: draining RestoreBackbone: %v", seed, err)
			}
		}
		for _, name := range names {
			f.RestorePrimary(name)
		}
		cleanBackgrounds(t, f.Net)
		if err := f.AuditSlots(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := f.Net.VerifyReference(1e-6); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDrainAbortsWhenTargetRegionFails is the drain-race regression test: a
// migration is draining toward a staged target when that target's region
// fails. The drain must abort cleanly — reservation released, clients
// resumed on the old placement, the record stamped aborted with the reason —
// instead of cutting over into the freshly failed region.
func TestDrainAbortsWhenTargetRegionFails(t *testing.T) {
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
	})
	target := -1
	k.At(200.5, func() {
		if a.pending == nil {
			t.Error("no staged reservation to race against")
			return
		}
		target = grid.RouterIndex(a.pending.ManagerHost)
		if err := f.FailRegion(target); err != nil {
			t.Errorf("FailRegion(%d): %v", target, err)
		}
	})
	k.Run(400)

	if got := len(a.Migrations); got != 1 {
		t.Fatalf("migrations = %+v, want exactly one aborted record", a.Migrations)
	}
	m := a.Migrations[0]
	if m.Completed() {
		t.Fatal("migration cut over into a region that failed mid-drain")
	}
	if !m.Aborted() {
		t.Fatal("migration record not stamped aborted")
	}
	if m.AbortedAt <= m.DecidedAt {
		t.Errorf("AbortedAt=%v not after DecidedAt=%v", m.AbortedAt, m.DecidedAt)
	}
	if m.Err == nil || !strings.Contains(m.Err.Error(), "failed mid-drain") {
		t.Errorf("abort reason = %v, want the mid-drain target failure", m.Err)
	}
	if a.pending != nil {
		t.Error("migration state not cleared by the abort")
	}
	if err := f.AuditSlots(); err != nil {
		t.Error(err)
	}
	// The reservation's slots are back: only Remos plus the app's own
	// (unchanged) assignment are committed.
	total := len(grid.Hosts)
	if got, want := f.Sch.FreeSlots(), total-1-a.Assign.slots(); got != want {
		t.Errorf("free slots = %d, want %d: the aborted reservation leaked", got, want)
	}

	// The clients resumed on the old placement: lift the contention and the
	// app serves again.
	before := a.Sys.Client("C1").Responses()
	k.At(410, func() {
		f.RestorePrimary("x")
		_ = f.RestoreRegion(target)
	})
	k.Run(700)
	if got := a.Sys.Client("C1").Responses(); got <= before {
		t.Errorf("clients never resumed after the abort: responses %d -> %d", before, got)
	}
}

// TestRetireRacesTargetRegionFailure interleaves all three mid-drain events
// — target-region failure, then retirement before the drain poller has seen
// the failure — and asserts the retire path wins cleanly: one aborted
// record, no leaks, all slots back.
func TestRetireRacesTargetRegionFailure(t *testing.T) {
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
	k.At(150, func() { _ = f.CrushServers("x") })
	k.At(200, func() {
		if err := f.Migrate("x"); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	// Fail the target 0.3 s after the decision and retire 0.3 s after that —
	// both inside the first drain-poll interval, so retirement gets there
	// first.
	k.At(200.3, func() {
		if a.pending == nil {
			t.Error("no staged reservation to race against")
			return
		}
		_ = f.FailRegion(grid.RouterIndex(a.pending.ManagerHost))
	})
	k.At(200.6, func() {
		if err := f.Retire("x"); err != nil {
			t.Errorf("retire mid-drain: %v", err)
		}
	})
	k.Run(400)

	if got := len(a.Migrations); got != 1 {
		t.Fatalf("migrations = %+v, want exactly one aborted record", a.Migrations)
	}
	m := a.Migrations[0]
	if m.Completed() || !m.Aborted() {
		t.Fatalf("record = %+v, want aborted and not completed", m)
	}
	if m.Err != nil {
		t.Errorf("retirement abort carries Err=%v, want nil (AbortedAt says what happened)", m.Err)
	}
	if a.Live() {
		t.Fatal("app still live after retirement")
	}
	if err := f.AuditSlots(); err != nil {
		t.Error(err)
	}
	total := len(grid.Hosts)
	if got := f.Sch.FreeSlots(); got != total-1 {
		t.Errorf("free slots = %d, want %d (all but Remos)", got, total-1)
	}
}

// TestScenarioFaultScheduleRuns drives the declarative Faults schedule end
// to end — overlapping region failures with a racing partial restore,
// backbone churn, a forced migration and a mid-run retirement — and asserts
// the run is deterministic and ends balanced.
func TestScenarioFaultScheduleRuns(t *testing.T) {
	opts := ScenarioOptions{
		Apps: 3, Seed: 11, Duration: 420, CrushStart: -1, Adaptive: true,
		SpareRouters: 2,
		Faults: []Fault{
			{At: 120, Kind: FaultRegionFail, Router: 1, Duration: 120},
			{At: 150, Kind: FaultRegionFail, Router: 1, Duration: 120}, // nested
			{At: 180, Kind: FaultRegionPartialRestore, Router: 1, Fraction: 0.5},
			{At: 160, Kind: FaultBackboneCrush, Fraction: 0.4, LeaveBps: 40e3, Duration: 100},
			{At: 200, Kind: FaultBackbonePartialRestore, Fraction: 0.5},
			{At: 220, Kind: FaultMigrate, App: 1},
			{At: 300, Kind: FaultRetire, App: 2},
			{At: 310, Kind: FaultRegionRestore, Router: 3}, // unbalanced: safe no-op
		},
	}
	res1, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Table() != res2.Table() {
		t.Fatalf("fault-schedule run not deterministic:\n--- run 1\n%s\n--- run 2\n%s", res1.Table(), res2.Table())
	}
	f := res1.Fleet
	if a := f.App(ScenarioAppName(2)); a == nil || a.Live() {
		t.Error("FaultRetire did not retire app02")
	}
	if a := f.App(ScenarioAppName(1)); a == nil || len(a.Migrations) == 0 {
		t.Error("FaultMigrate recorded no migration attempt on app01")
	}
	cleanBackgrounds(t, f.Net)
	if err := f.AuditSlots(); err != nil {
		t.Error(err)
	}
}
