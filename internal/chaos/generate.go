// Package chaos is the seeded scenario fuzzer and invariant-checking soak
// harness: it turns one uint64 seed into a random-but-deterministic fleet
// scenario — grid shape, heterogeneous app mix, admission churn, and a fault
// schedule composing the injectors into overlapping, repeated, restore-racing
// sequences the hand-written catalog never tries — then executes it in both
// pinned and migrate modes under the standing invariants:
//
//  1. determinism — a same-seed re-run is byte-identical (summary table,
//     migration records, rejections, free slots);
//  2. slots — the scheduler's ledger audits clean mid-run and post-run
//     (Fleet.AuditSlots: every admit/retire/migrate round-trips its slots
//     and reservations), and balanced fault schedules leave zero background;
//  3. netsim — the incremental region-partitioned solver spot-checks equal
//     to the retained global oracle (Network.VerifyReference);
//  4. ranked — no ranked migration ever records a target measurably worse
//     than its source (TargetHealth ≥ SourceHealth);
//  5. drains — no stuck drains: every migration record reaches a cutover,
//     a recorded abort, or a placement error;
//  6. openloop — when the seed enables the open-loop engine, the admission
//     ledger balances (Offered = Admitted + Shed + Queued; Admitted =
//     Active + Retired, with Active matching the live population) and no
//     server group ever carries more autoscaled replicas than the policy
//     cap.
//
// On failure, Shrink bisects the fault schedule (ddmin) and trims the
// scenario to a minimal reproducer, and fleet.FormatOptions renders it as a
// ready-to-paste ScenarioOptions literal. cmd/soak is the driver.
package chaos

import (
	"math"
	"sort"

	"archadapt/internal/fleet"
	"archadapt/internal/sim"
)

// Generate derives a random-but-deterministic scenario from a seed. Sizes
// are bounded so one run stays well under a second: 2–6 apps of 1–3 shapes,
// 2 process slots max per host, explicit router counts with spare-region
// headroom, 240–480 s of scripted time, and a 3–10 event fault schedule.
// Every generated schedule is balanced — each injection either carries a
// Duration (auto-restore) or targets state that may legitimately not exist
// (the deliberately unbalanced restores, defined to be safe no-ops) — so a
// clean run must end with zero background load on every link.
func Generate(seed uint64) fleet.ScenarioOptions {
	rng := sim.NewRand(seed).Fork("chaos:gen")

	shapes := 1 + rng.Intn(3)
	mix := make([]fleet.AppSpec, 0, shapes)
	for i := 0; i < shapes; i++ {
		mix = append(mix, fleet.AppSpec{
			Groups:          1 + rng.Intn(3),
			ServersPerGroup: 1 + rng.Intn(2),
			SparesPerGroup:  rng.Intn(2),
			Clients:         1 + rng.Intn(3),
			ClientRate:      0.5 + 0.25*float64(rng.Intn(7)),
		})
	}
	apps := 2 + rng.Intn(5)
	hostCap := 1 + rng.Intn(2)
	hpr := 2 + rng.Intn(3)

	// Size the grid explicitly: the fault schedule needs to know the region
	// count, and migrations need spare-region headroom beyond the slot
	// minimum.
	slots := 1 // Remos collector
	for i := 0; i < apps; i++ {
		s := mix[i%len(mix)]
		slots += 2 + s.Groups*(s.ServersPerGroup+s.SparesPerGroup) + s.Clients
	}
	hosts := (slots + hostCap - 1) / hostCap
	routers := (hosts + hpr - 1) / hpr
	if routers < 4 {
		routers = 4
	}
	routers += 1 + rng.Intn(3)

	duration := float64(240 + 60*rng.Intn(5))
	opts := fleet.ScenarioOptions{
		Apps:           apps,
		AppMix:         mix,
		Routers:        routers,
		HostsPerRouter: hpr,
		HostCapacity:   hostCap,
		Seed:           seed,
		Duration:       duration,
		Adaptive:       true,
		CrushStart:     -1, // all contention comes from the fault schedule
	}
	// Admission/retirement churn: sometimes staggered starts, sometimes two
	// diurnal waves with early retirement.
	if rng.Intn(3) == 0 {
		opts.AdmitStagger = float64(5 * (1 + rng.Intn(4)))
	}
	if rng.Intn(4) == 0 {
		opts.AdmitWaves = 2
		opts.RetireAfter = math.Round(duration * 0.45)
	}

	// The fault schedule: overlapping, repeated and restore-racing
	// compositions, every window clamped inside the scripted duration so
	// the end state must be clean.
	window := func() (at, dur float64) {
		at = math.Round(40 + rng.Float64()*(duration-160))
		dur = math.Round(30 + rng.Float64()*120)
		if at+dur > duration {
			dur = duration - at
		}
		return at, dur
	}
	nf := 3 + rng.Intn(8)
	var faults []fleet.Fault
	for i := 0; i < nf; i++ {
		at, dur := window()
		switch rng.Intn(10) {
		case 0, 1: // per-app crush, auto-restored
			kind := fleet.FaultCrushPrimary
			if rng.Intn(2) == 0 {
				kind = fleet.FaultCrushAll
			}
			faults = append(faults, fleet.Fault{At: at, Kind: kind, App: rng.Intn(apps), Duration: dur})
		case 2, 3: // region failure, sometimes raced by a partial restore
			flt := fleet.Fault{At: at, Kind: fleet.FaultRegionFail, Router: rng.Intn(routers), Duration: dur}
			faults = append(faults, flt)
			if rng.Intn(2) == 0 {
				faults = append(faults, fleet.Fault{
					At:       math.Round(at + rng.Float64()*dur),
					Kind:     fleet.FaultRegionPartialRestore,
					Router:   flt.Router,
					Fraction: 0.25 + 0.25*float64(rng.Intn(3)),
				})
			}
		case 4, 5: // backbone contention, sometimes partially lifted early
			faults = append(faults, fleet.Fault{
				At: at, Kind: fleet.FaultBackboneCrush, Duration: dur,
				Fraction: 0.2 + 0.1*float64(rng.Intn(5)),
				LeaveBps: float64(20+10*rng.Intn(7)) * 1e3,
			})
			if rng.Intn(3) == 0 {
				faults = append(faults, fleet.Fault{
					At:       math.Round(at + rng.Float64()*dur),
					Kind:     fleet.FaultBackbonePartialRestore,
					Fraction: 0.5,
				})
			}
		case 6: // forced operator migration — mid-drain races with everything
			faults = append(faults, fleet.Fault{At: at, Kind: fleet.FaultMigrate, App: rng.Intn(apps)})
		case 7: // early retirement
			faults = append(faults, fleet.Fault{At: at, Kind: fleet.FaultRetire, App: rng.Intn(apps)})
		case 8: // nested failure of the same region (refcount stress)
			r := rng.Intn(routers)
			inner := math.Round(at + dur*0.3)
			innerDur := dur
			if inner+innerDur > duration {
				innerDur = duration - inner
			}
			faults = append(faults,
				fleet.Fault{At: at, Kind: fleet.FaultRegionFail, Router: r, Duration: dur},
				fleet.Fault{At: inner, Kind: fleet.FaultRegionFail, Router: r, Duration: innerDur})
		case 9: // deliberately unbalanced restore: must no-op harmlessly
			kind := fleet.FaultRegionRestore
			if rng.Intn(2) == 0 {
				kind = fleet.FaultBackboneRestore
			}
			faults = append(faults, fleet.Fault{At: at, Kind: kind, Router: rng.Intn(routers)})
		}
	}
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })
	opts.Faults = faults

	// Open-loop fuzzing draws from its own fork, so every pre-open-loop
	// field of every seed is exactly what it was before the engine existed
	// (promoted catalog literals stay faithful to their seeds). A third of
	// seeds run open-loop: fuzzed population, per-shape arrival processes
	// spanning all three kinds, and sometimes the autoscaler and/or the
	// admission gate on top of the fault schedule.
	ol := sim.NewRand(seed).Fork("chaos:openloop")
	if ol.Intn(3) == 0 {
		users := 1000 * (1 + ol.Intn(10))
		opts.OpenLoop = fleet.OpenLoopPolicy{
			Enabled: true,
			Users:   users,
			Scale:   fleet.ScalePolicy{Enabled: ol.Intn(2) == 0, MaxReplicas: 1 + ol.Intn(4)},
		}
		if ol.Intn(2) == 0 {
			opts.OpenLoop.Admission = fleet.AdmissionPolicy{Enabled: true, Queue: ol.Intn(2) == 0}
		}
		// Aggregate offered load between 0.3x and 1.1x of each shape's
		// service capacity, spread over the modeled users.
		const mu = 1 / (0.05 + 0.16) // service rate at the default RespBits
		for i := range opts.AppMix {
			s := &opts.AppMix[i]
			ratio := 0.3 + 0.1*float64(ol.Intn(9))
			perUser := ratio * float64(s.Groups*s.ServersPerGroup) * mu / float64(users)
			switch ol.Intn(3) {
			case 0:
				s.Arrivals = fleet.ArrivalSpec{Lambda: perUser}
			case 1:
				s.Arrivals = fleet.ArrivalSpec{Kind: fleet.ArrivalDiurnal,
					Base: perUser, Swing: 0.2 + 0.1*float64(ol.Intn(4)), Period: duration / 2}
				if ol.Intn(2) == 0 {
					s.Arrivals.BurstAt = math.Round(duration * 0.3)
					s.Arrivals.BurstDuration = 60
					s.Arrivals.BurstFactor = float64(2 + ol.Intn(4))
				}
			case 2:
				s.Arrivals = fleet.ArrivalSpec{Kind: fleet.ArrivalTrace,
					Times: []float64{0, math.Round(duration * 0.3), math.Round(duration * 0.6)},
					Rates: []float64{perUser * 0.5, perUser * 1.5, perUser * 0.8}}
			}
		}
	}
	return opts
}

// MigratePolicy derives the migrate-mode policy for a seed: snappy enough
// (10 s checks, patience 2, 60 s cooldown) that short chaos runs actually
// migrate, with the targeting mode and drain cap themselves fuzzed.
func MigratePolicy(seed uint64) fleet.MigrationPolicy {
	rng := sim.NewRand(seed).Fork("chaos:policy")
	return fleet.MigrationPolicy{
		Enabled:       true,
		Ranked:        rng.Intn(2) == 0,
		MaxConcurrent: 1 + rng.Intn(3),
		CheckPeriod:   10,
		Patience:      2,
		Cooldown:      60,
	}
}
