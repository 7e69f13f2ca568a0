package fleet

import "fmt"

// CatalogEntry is one named, ready-to-run scenario. The catalog is the
// fleet's workload suite: each entry stresses a different part of the
// control plane, and SCENARIOS.md documents the knobs, what each entry
// stresses and the expected adaptive-vs-control outcome. cmd/fleet runs
// entries by name (-scenario).
type CatalogEntry struct {
	Name string
	// Stresses says which mechanism the scenario exercises; Expect is the
	// qualitative outcome a healthy build shows (mirrored in SCENARIOS.md).
	Stresses string
	Expect   string
	Opts     ScenarioOptions
}

// Catalog returns the named scenario suite. Entries are deterministic and
// sized to finish in well under a second of wall clock each.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{
			Name:     "baseline",
			Stresses: "per-app repair under staggered single-group contention (the PR 1 workload)",
			Expect:   "adaptive fleet repairs every app (moves off the crushed group); control stays degraded for the crush window",
			Opts: ScenarioOptions{
				Apps: 16, Seed: 1, Duration: 600, Adaptive: true,
				CrushStart: 120, CrushStagger: 5, CrushDuration: 240,
			},
		},
		{
			Name:     "heterogeneous",
			Stresses: "placement and monitoring under a mixed fleet: small chatty apps, large replicated apps, single-group apps with spares",
			Expect:   "every shape admits and repairs independently; single-group apps recruit spares instead of moving",
			Opts: ScenarioOptions{
				Apps: 12, Seed: 3, Duration: 600, Adaptive: true,
				AppMix: []AppSpec{
					{Groups: 2, ServersPerGroup: 2, Clients: 2},
					{Groups: 3, ServersPerGroup: 2, Clients: 4, ClientRate: 0.5},
					{Groups: 1, ServersPerGroup: 2, SparesPerGroup: 2, Clients: 2, ClientRate: 2},
				},
				CrushStart: 120, CrushStagger: 10, CrushDuration: 240,
			},
		},
		{
			Name:     "diurnal",
			Stresses: "admission/retirement churn: three admission waves whose apps retire before the next wave, reusing slots and recycled monitoring shards",
			Expect:   "all waves admit onto the same (small) grid; retired apps free slots, shards and gauge leases for their successors",
			Opts: ScenarioOptions{
				Apps: 12, Seed: 5, Duration: 900, Adaptive: true,
				AdmitWaves: 3, RetireAfter: 280,
				Routers: 12, HostsPerRouter: 4,
				CrushStart: 60, CrushStagger: 20, CrushDuration: 120,
			},
		},
		{
			Name:     "backbone-crush",
			Stresses: "correlated cross-region contention: half the backbone links lose almost all capacity at once, degrading many apps simultaneously",
			Expect:   "repairs fire across much of the fleet in the same window; apps whose groups sit behind the crushed chain segment move clients toward better-connected groups",
			Opts: ScenarioOptions{
				Apps: 12, Seed: 7, Duration: 600, Adaptive: true,
				CrushStart:         -1, // no per-app crushes; the backbone is the event
				BackboneCrushStart: 180, BackboneCrushDuration: 240,
			},
		},
		{
			Name:     "region-failure",
			Stresses: "grid-scale failure injection: every access link under one router starves, hitting every process placed there regardless of owner",
			Expect:   "apps with a group in the failed region repair around it; apps entirely inside it stay degraded until the region recovers (or migration is enabled)",
			Opts: ScenarioOptions{
				Apps: 12, Seed: 9, Duration: 600, Adaptive: true,
				CrushStart:      -1,
				RegionFailStart: 180, RegionFailDuration: 240, RegionFailRouter: 1,
			},
		},
		{
			Name:     "region-collapse",
			Stresses: "the migration control loop: every server group of the first apps degrades at once, so intra-app repair has nowhere to move clients and only fleet-level re-placement helps",
			Expect:   "with migration enabled the degraded apps are re-placed into spare-router headroom and recover; pinned (migration disabled) they stay above bound for the whole crush",
			Opts: ScenarioOptions{
				Apps: 8, Seed: 11, Duration: 900, Adaptive: true,
				SpareRouters:   4,
				CrushAllGroups: true, CrushApps: 2,
				CrushStart: 150, CrushStagger: 30, CrushDuration: 600,
				Migration: MigrationPolicy{Enabled: true},
			},
		},
		{
			Name:     "backbone-rescue",
			Stresses: "measurement-driven migration targeting: the head of the backbone chain collapses (the proactive backbone verdict drives the decisions), while one of the spare regions every blind re-placement reaches first is concurrently failed — a trap only live measurement can see",
			Expect:   "ranked targeting re-places degraded apps into regions that measure healthy (TargetHealth ≥ SourceHealth on every ranked record) and cuts time-above-bound versus the avoid-set-only controller, which drops its first re-placements into the failed spare region",
			Opts: ScenarioOptions{
				Apps: 10, Seed: 13, Duration: 900, Adaptive: true,
				Routers: 35, HostsPerRouter: 4,
				CrushStart: -1, // the backbone + failed spare are the event
				// Listed crush first: the two events at t=150 fire in this order.
				Faults: []Fault{
					{At: 150, Kind: FaultBackboneCrush, Fraction: 0.3, LeaveBps: 30e3, Duration: 600},
					{At: 150, Kind: FaultRegionFail, Router: 21, Duration: 600},
				},
				Migration: MigrationPolicy{Enabled: true, Ranked: true},
			},
		},
		{
			Name:     "thundering-herd",
			Stresses: "the migration coordination layer: eight apps lose every server group at the same instant and compete for spare capacity sized for two; staged reservations and the MaxConcurrent cap must serialize the drains",
			Expect:   "at most MaxConcurrent drains in flight at any time, reservations never double-book a spare region's last slots and always round-trip (FreeSlots is exact after the run); the first movers are rescued, the rest settle for the least-bad measured regions",
			Opts: ScenarioOptions{
				Apps: 8, Seed: 17, Duration: 900, Adaptive: true,
				SpareRouters:   4,
				CrushAllGroups: true, CrushApps: 8,
				CrushStart: 150, CrushStagger: 0, CrushDuration: 600,
				Migration: MigrationPolicy{Enabled: true, Ranked: true, MaxConcurrent: 2},
			},
		},
		{
			// Promoted from the chaos fuzzer (internal/chaos, seed 247): the
			// sustained-churn interleaving the hand-written entries never
			// tried. The literal is chaos.Generate(247) + MigratePolicy(247)
			// as generated before open-loop fuzzing existed (the open-loop
			// draws come from a separate RNG fork, so every field here still
			// matches its seed); TestFuzzerPromotedOutcomes pins the dynamics.
			Name:     "fuzzed-drain-races",
			Stresses: "sustained migration churn under a serialized drain pipeline (MaxConcurrent 1): overlapping region failures and backbone crushes keep re-degrading apps that just moved, and two drains race a failure of their own staged target region",
			Expect:   "eleven migrations complete across the run; two drains abort mid-flight when their target region fails after the decision (records stamped aborted with the reason, reservations released); the end-of-run Stop aborts the last in-flight drain; slots and background load audit clean",
			Opts: ScenarioOptions{
				Apps: 5,
				AppMix: []AppSpec{
					{Groups: 3, ServersPerGroup: 1, SparesPerGroup: 1, Clients: 2, ClientRate: 2},
					{Groups: 2, ServersPerGroup: 1, SparesPerGroup: 1, Clients: 3, ClientRate: 1.75},
				},
				Routers: 16, HostsPerRouter: 2, HostCapacity: 2,
				Seed: 247, Duration: 480, CrushStart: -1, Adaptive: true,
				Migration: MigrationPolicy{Enabled: true, CheckPeriod: 10, Patience: 2, Cooldown: 60, MaxConcurrent: 1},
				Faults: []Fault{
					{At: 45, Kind: FaultMigrate},
					{At: 117, Kind: FaultBackboneCrush, Fraction: 0.2, LeaveBps: 40000, Duration: 90},
					{At: 135, Kind: FaultRegionFail, Router: 4, Duration: 99},
					{At: 159, Kind: FaultBackboneCrush, Fraction: 0.5, LeaveBps: 70000, Duration: 94},
					{At: 165, Kind: FaultRegionFail, Router: 4, Duration: 99},
					{At: 175, Kind: FaultRegionFail, Router: 2, Duration: 84},
					{At: 271, Kind: FaultRegionFail, Router: 12, Duration: 134},
					{At: 278, Kind: FaultRegionRestore, Router: 4},
					{At: 313, Kind: FaultBackboneCrush, Fraction: 0.5, LeaveBps: 30000, Duration: 123},
					{At: 341, Kind: FaultRetire, App: 3},
					{At: 351, Kind: FaultRegionFail, Router: 1, Duration: 110},
					{At: 391, Kind: FaultRegionPartialRestore, Router: 12, Fraction: 0.75},
					{At: 397, Kind: FaultBackbonePartialRestore, Fraction: 0.5},
				},
			},
		},
		{
			// Promoted from the chaos fuzzer (seed 187): ranked targeting
			// under genuine capacity starvation — four overlapping region
			// failures on a one-slot-per-host grid leave less spare capacity
			// than any single app needs, so the controller must keep retrying
			// until partial restores free just enough. The literal is
			// chaos.Generate(187) + MigratePolicy(187) verbatim.
			Name:     "fuzzed-capacity-squeeze",
			Stresses: "ranked targeting under capacity starvation: four overlapping region failures (two raced by partial restores) squeeze free slots below what a re-placement needs, an early drain races its target region's failure, and placement failures must resolve as regions recover",
			Expect:   "early migration attempts fail placement (\"no healthy capacity\") and one drain aborts when its target region fails mid-drain; once partial restores free capacity, seven migrations complete, every ranked record satisfies TargetHealth ≥ SourceHealth, and the end state audits clean",
			Opts: ScenarioOptions{
				Apps: 6,
				AppMix: []AppSpec{
					{Groups: 1, ServersPerGroup: 2, SparesPerGroup: 1, Clients: 3, ClientRate: 1.75},
				},
				Routers: 16, HostsPerRouter: 4, HostCapacity: 1,
				Seed: 187, Duration: 360, CrushStart: -1, Adaptive: true,
				Migration: MigrationPolicy{Enabled: true, Ranked: true, CheckPeriod: 10, Patience: 2, Cooldown: 60, MaxConcurrent: 2},
				Faults: []Fault{
					{At: 44, Kind: FaultCrushAll, App: 3, Duration: 87},
					{At: 62, Kind: FaultRegionFail, Router: 11, Duration: 70},
					{At: 84, Kind: FaultRegionFail, Router: 9, Duration: 87},
					{At: 100, Kind: FaultRegionPartialRestore, Router: 11, Fraction: 0.5},
					{At: 102, Kind: FaultRegionFail, Router: 10, Duration: 39},
					{At: 105, Kind: FaultRegionFail, Router: 12, Duration: 116},
					{At: 116, Kind: FaultRegionPartialRestore, Router: 10, Fraction: 0.5},
					{At: 120, Kind: FaultRegionPartialRestore, Router: 9, Fraction: 0.5},
					{At: 137, Kind: FaultCrushPrimary, App: 2, Duration: 124},
					{At: 161, Kind: FaultRetire, App: 3},
					{At: 179, Kind: FaultBackboneCrush, Fraction: 0.2, LeaveBps: 70000, Duration: 91},
					{At: 201, Kind: FaultBackboneCrush, Fraction: 0.6000000000000001, LeaveBps: 80000, Duration: 96},
					{At: 236, Kind: FaultBackbonePartialRestore, Fraction: 0.5},
				},
			},
		},
		{
			Name:     "flash-crowd",
			Stresses: "the open-loop engine end to end: 100k modeled users per app on a diurnal envelope, an 8x flash crowd saturating every primary group at once, and the replica autoscaler absorbing it",
			Expect:   "pre-burst the fleet idles around half utilization; the burst saturates SG1 everywhere, autoscaled replicas grow each group until utilization falls below the up-threshold, and after the burst the same replicas drain back out (ScaleUps and ScaleDowns both nonzero, slots audit clean)",
			Opts: ScenarioOptions{
				Apps: 8, Seed: 19, Duration: 900, Adaptive: true,
				SpareRouters: 16, // slot headroom the autoscaler grows into
				CrushStart:   -1, // the flash crowd is the event
				App: AppSpec{Arrivals: ArrivalSpec{Kind: ArrivalDiurnal,
					Base: 5e-5, Swing: 0.3, Period: 900,
					BurstAt: 300, BurstDuration: 180, BurstFactor: 8}},
				OpenLoop: OpenLoopPolicy{Enabled: true, Users: 100_000,
					Scale: ScalePolicy{Enabled: true}},
			},
		},
		{
			Name:     "overload-shed",
			Stresses: "the fleet admission controller: a mix of light and heavy open-loop apps offered against a gate that admits only while aggregate offered load stays under 95% of fleet service capacity",
			Expect:   "light apps admit; heavy candidates whose load would tip the fleet past the ceiling are shed at offer time (rejections recorded, no placement attempted), and the admission ledger balances: Offered = Admitted + Shed, no queueing",
			Opts: ScenarioOptions{
				Apps: 12, Seed: 23, Duration: 600, Adaptive: true,
				CrushStart: -1,
				AppMix: []AppSpec{
					{Groups: 2, ServersPerGroup: 2, Clients: 2, Arrivals: ArrivalSpec{Lambda: 8e-5}},
					{Groups: 2, ServersPerGroup: 2, Clients: 2, Arrivals: ArrivalSpec{Lambda: 4e-4}},
				},
				OpenLoop: OpenLoopPolicy{Enabled: true, Users: 100_000,
					Admission: AdmissionPolicy{Enabled: true}},
			},
		},
		{
			Name:     "autoscale-race",
			Stresses: "the autoscaler racing the migration controller: overloaded groups grow autoscaled replicas while region-collapse contention drives fleet-level re-placements, so replicas must be torn down at decision time and regrown against the new placement",
			Expect:   "every group scales up early (offered utilization starts past the up-threshold); the crushed apps migrate into spare-router headroom with their autoscaled replicas dropped before the drain and re-added after cutover; slots audit clean at the end",
			Opts: ScenarioOptions{
				Apps: 6, Seed: 29, Duration: 900, Adaptive: true,
				SpareRouters:   8, // headroom both the autoscaler and migration bid for
				CrushAllGroups: true, CrushApps: 2,
				CrushStart: 150, CrushStagger: 30, CrushDuration: 300,
				Migration: MigrationPolicy{Enabled: true},
				App:       AppSpec{Arrivals: ArrivalSpec{Lambda: 1.2e-4}},
				OpenLoop: OpenLoopPolicy{Enabled: true, Users: 100_000,
					Scale: ScalePolicy{Enabled: true}},
			},
		},
	}
}

// ScenarioByName returns the catalog entry with the given name.
func ScenarioByName(name string) (CatalogEntry, error) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, nil
		}
	}
	return CatalogEntry{}, fmt.Errorf("fleet: no scenario %q in the catalog", name)
}
