package main

import "fmt"

// scenario is a fleet workload in the benchmark's own terms. The adapter
// turns it into the simulator's options, so a workload is fixed here: a later
// change cannot move one by editing the simulator's scenario catalog, and a
// rename on the simulator's configuration surface is an adapter edit only.
// Every scenario runs adaptive, on the default single kernel.
type scenario struct {
	Apps         int
	Duration     float64 // simulated seconds; the fleet drains 120 s more
	SpareRouters int

	// Admission waves and retirement (zero: all admitted at t=0, none retire).
	AdmitWaves   int
	AdmitStagger float64
	RetireAfter  float64

	// Per-app contention. CrushStart < 0 disables it.
	CrushStart, CrushStagger, CrushDuration float64
	CrushApps                               int
	CrushAllGroups                          bool

	RegionFailStart, RegionFailDuration float64
	RegionFailRouter                    int

	BackboneCrushStart, BackboneCrushDuration float64

	// RankedMigration enables the migration controller with Remos-ranked
	// targeting.
	RankedMigration bool

	// Surge, when set, runs the open-loop engine (autoscaler and admission
	// controller on) under a diurnal envelope with one flash-crowd burst.
	Surge *surge
}

type surge struct {
	Users                               int
	Base, Swing, Period                 float64
	BurstAt, BurstDuration, BurstFactor float64
}

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// apps divides the per-app metrics: admitted applications on the fleet
	// workloads, application runs per repetition on paper-testbed.
	apps int
	// simReps is the number of leading repetitions the simulated statistics
	// and the fingerprint are taken over, and the least a run executes. It
	// is fixed so those statistics are exact under a seed however many more
	// repetitions the run's seconds allow.
	simReps int
	// fleet is nil on paper-testbed.
	fleet *scenario
	// floor lists what a repetition's outputs must show beyond the checks
	// common to every workload.
	floor func(sc *scenario, o *outcome) []string
}

var workloads = []workload{
	{
		name: "fleet-steady",
		why: "closed-loop fleet, 64 apps under staggered primary-group contention: the run phase is the kernel, request pipeline, " +
			"max-min solver and shared probe/bus/gauge plane; routing is set-up only",
		apps: 64, simReps: 8,
		fleet: &scenario{Apps: 64, Duration: 600, CrushStart: 120, CrushStagger: 5, CrushDuration: 240},
		floor: crushedAppsRepaired,
	},
	{
		name: "fleet-scale",
		why: "the same script at 256 apps (513 routers): whatever is superlinear in fleet size (placement to routing, retained " +
			"path cache) dominates, per-event gains show little",
		apps: 256, simReps: 1,
		fleet: &scenario{Apps: 256, Duration: 600, CrushStart: 120, CrushStagger: 5, CrushDuration: 240},
		floor: crushedAppsRepaired,
	},
	{
		name: "fleet-churn",
		why: "48 apps admitted in waves and retired mid-run with region failure, backbone crush and ranked migration: placement, " +
			"reservations, drains and health batches run against a warm path cache",
		apps: 48, simReps: 8,
		fleet: &scenario{
			Apps: 48, Duration: 1200, SpareRouters: 12,
			AdmitWaves: 3, AdmitStagger: 2, RetireAfter: 380,
			CrushAllGroups: true, CrushApps: 24, CrushStart: 120, CrushStagger: 15, CrushDuration: 200,
			RegionFailStart: 500, RegionFailDuration: 200, RegionFailRouter: 2,
			BackboneCrushStart: 900, BackboneCrushDuration: 150,
			RankedMigration: true,
		},
		floor: func(_ *scenario, o *outcome) []string {
			var bad []string
			if o.migCompleted < 1 {
				bad = append(bad, "no migration completed")
			}
			if o.retired != o.apps {
				bad = append(bad, fmt.Sprintf("%d of %d apps retired", o.retired, o.apps))
			}
			return bad
		},
	},
	{
		name: "openloop-surge",
		why: "open-loop engine, 100k modelled users per app through an 8x flash crowd: arrivals, M/M/m verdicts, class flows, " +
			"autoscaler and admission ledger work; no repairs or migrations, few solves",
		apps: 16, simReps: 4,
		fleet: &scenario{
			Apps: 16, Duration: 3600, SpareRouters: 16, CrushStart: -1,
			Surge: &surge{Users: 100_000, Base: 5e-5, Swing: 0.3, Period: 900, BurstAt: 300, BurstDuration: 180, BurstFactor: 8},
		},
		floor: func(_ *scenario, o *outcome) []string {
			var bad []string
			if o.scaleUps == 0 || o.scaleDowns == 0 {
				bad = append(bad, fmt.Sprintf("autoscaler idle: %d ups, %d downs", o.scaleUps, o.scaleDowns))
			}
			if o.offered != o.admitted+o.shed+o.queued {
				bad = append(bad, fmt.Sprintf("ledger unbalanced: offered %d != admitted %d + shed %d + queued %d",
					o.offered, o.admitted, o.shed, o.queued))
			}
			return bad
		},
	},
	{
		name: "paper-testbed",
		why: "the paper's section 5 runs on the Figure 6 testbed (control, adaptive, adaptive with 5.3 extensions): the non-fleet " +
			"path, 11 hosts, no placement or routing growth; fleet-layer changes must not move it",
		apps: 3, simReps: 48,
		floor: func(_ *scenario, o *outcome) []string {
			var bad []string
			if o.paper.controlFinalFrac < 0.9 {
				bad = append(bad, fmt.Sprintf("control recovered: final-phase fraction above 2 s is %.3f", o.paper.controlFinalFrac))
			}
			if !(o.paper.adaptiveFrac < o.paper.controlFrac) {
				bad = append(bad, fmt.Sprintf("adaptive %.3f not below control %.3f", o.paper.adaptiveFrac, o.paper.controlFrac))
			}
			return bad
		},
	},
}

// repairSlack is how long before the end of the run an app's contention must
// start for the floor to demand a repair of it: detection and the repair
// itself take about a minute and a half.
const repairSlack = 120

// crushedAppsRepaired is the floor of the staggered-contention workloads:
// every app whose primary group was crushed early enough was repaired at
// least once. (At 256 apps the stagger runs past the end of the run, so the
// last apps are never crushed.)
func crushedAppsRepaired(sc *scenario, o *outcome) []string {
	var bad []string
	for i, repairs := range o.repairsByApp {
		crushAt := sc.CrushStart + float64(i)*sc.CrushStagger
		if crushAt+repairSlack <= sc.Duration && repairs < 1 {
			bad = append(bad, fmt.Sprintf("app %d, crushed at %.0f s, saw no repair", i, crushAt))
		}
	}
	return bad
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// outcome is what one repetition produced, in the benchmark's terms.
type outcome struct {
	apps     int    // applications admitted (fleet) or runs made (paper-testbed)
	executed uint64 // kernel events fired (paper-testbed: traced repetition only)

	fracAbove     float64 // mean over apps of the fraction of samples above the latency bound
	repairs       int
	repairSeconds float64 // summed repair durations, simulated seconds
	repairsByApp  []int   // in admission order
	alerts        int
	responses     uint64
	dropped       uint64

	rejections   int
	freeSlots    int
	retired      int
	migCompleted int
	migAborted   int

	scaleUps, scaleDowns            int
	offered, admitted, shed, queued int

	// audit is Fleet.AuditSlots after the run.
	audit error
	// fingerprint hashes everything a same-seed run must reproduce.
	fingerprint [32]byte
	// summaries is compared with the traced twin's by reflect.DeepEqual.
	summaries any

	paper *paperOutcome
}

// paperOutcome carries the section 5 comparison of one paper-testbed
// repetition.
type paperOutcome struct {
	controlFrac, controlFinalFrac   float64
	adaptiveFrac, adaptiveFinalFrac float64
	firstViolation                  float64 // control run, simulated seconds
	meanRepair                      float64 // adaptive run, simulated seconds
	moves                           int     // adaptive run
}

// check returns every reason a repetition's outputs are wrong; empty means
// the operation succeeded.
func (w *workload) check(o *outcome) []string {
	var bad []string
	if o.apps != w.apps {
		bad = append(bad, fmt.Sprintf("%d apps admitted, want %d", o.apps, w.apps))
	}
	if o.audit != nil {
		bad = append(bad, "slot audit: "+o.audit.Error())
	}
	return append(bad, w.floor(w.fleet, o)...)
}
