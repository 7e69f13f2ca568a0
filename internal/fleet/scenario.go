package fleet

import (
	"fmt"
	"math"
	"reflect"

	"archadapt/internal/core"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// ScenarioOptions configures a canned fleet run: generate a grid sized for
// N applications, admit them (optionally staggered), aim Figure 7-style
// bandwidth competition at each application's primary group in turn, and run
// to Duration. It is the fleet equivalent of experiment.Options and drives
// cmd/fleet, the end-to-end tests, and BenchmarkFleet.
type ScenarioOptions struct {
	// Apps is the number of applications to admit (default 8).
	Apps int
	// App is the per-application template; Name is overridden per app.
	App AppSpec
	// AppMix, when non-empty, admits a heterogeneous fleet: app i uses
	// AppMix[i%len(AppMix)] (names still overridden per app) and App is
	// ignored. Auto-sizing accounts for the exact mix.
	AppMix []AppSpec

	// Routers and HostsPerRouter size the grid; zero auto-sizes so every
	// process of every application gets its own host slot. SpareRouters
	// adds that many routers beyond the auto-sized minimum — headroom the
	// migration controller can re-place degraded applications into (ignored
	// when Routers is set explicitly).
	Routers        int
	HostsPerRouter int
	SpareRouters   int

	Seed uint64
	// Duration of the run in simulated seconds (default 600); the fleet
	// drains for a further 120 s after clients stop.
	Duration float64
	// AdmitStagger spaces admissions (default 0: all admitted at t=0).
	AdmitStagger float64
	// AdmitWaves > 1 spreads admissions into that many diurnal waves: wave w
	// starts at w*Duration/AdmitWaves, with AdmitStagger applied within each
	// wave.
	AdmitWaves int
	// RetireAfter retires each application this long after its admission
	// (0: apps run to the end). With waves, later waves reuse the slots
	// earlier waves freed.
	RetireAfter float64

	// CrushStart, CrushStagger and CrushDuration schedule the per-app
	// competition: app i's primary paths are crushed during
	// [CrushStart+i*CrushStagger, +CrushDuration) — but never sooner than
	// 100 s after its admission, so Remos has warmed (the paper's
	// pre-querying) and gauges are reporting. CrushDuration 0 defaults to
	// 240 s; CrushStart <0 disables contention entirely.
	CrushStart    float64
	CrushStagger  float64
	CrushDuration float64
	// CrushApps limits the per-app contention to the first CrushApps
	// applications (0: all of them).
	CrushApps int
	// CrushAllGroups aims the contention at every group's servers instead
	// of only the primary's — a degradation intra-app repair cannot route
	// around, and the trigger migration exists for.
	CrushAllGroups bool

	// BackboneCrushStart > 0 schedules correlated backbone contention: from
	// that time, for BackboneCrushDuration seconds (default 240), half the
	// backbone links (chain first) are loaded down to 50 Kbps available. A
	// FaultBackboneCrush in Faults states any other fraction or level.
	BackboneCrushStart    float64
	BackboneCrushDuration float64

	// RegionFailStart > 0 schedules a region-wide failure: every access
	// link under router RegionFailRouter is starved from RegionFailStart
	// for RegionFailDuration seconds (default 240).
	RegionFailStart    float64
	RegionFailDuration float64
	RegionFailRouter   int

	// Faults is an explicit fault schedule (faults.go) composing the
	// injectors freely — overlapping region failures, partial restores,
	// forced migrations, mid-run retirements — beyond what the single-event
	// knobs above express. Events fire in At order (ties in list order,
	// after any same-instant admissions); a Fault with Duration > 0
	// auto-schedules its matching restore. Empty (the default) the run is
	// byte-identical to a build without the schedule. This is the chaos
	// engine's vocabulary: internal/chaos generates these, and shrunk
	// reproducers paste back in as literals.
	Faults []Fault

	// Adaptive enables repairs (default via Config); Manager tunes each
	// application's architecture manager.
	Adaptive bool
	Manager  core.Config
	// HostCapacity overrides the auto-sized per-host slot count.
	HostCapacity int

	// Migration enables and tunes the fleet-level migration controller.
	// Zero value: disabled, and the run is byte-identical to a fleet
	// without the controller.
	Migration MigrationPolicy

	// OpenLoop enables and tunes the open-loop heavy-traffic engine. Zero
	// value: disabled, byte-identical to a fleet without the engine.
	OpenLoop OpenLoopPolicy

	// Trace attaches the run to the observability plane (Config.Trace): the
	// finished ScenarioResult's Fleet.Tracer() holds the causal span tree,
	// phase latencies and kernel counters, and summaries carry PhaseSets.
	// Off (the default) the run is byte-identical to an untraced build.
	Trace bool
}

// specFor returns the (defaulted) spec for app index i.
func (o ScenarioOptions) specFor(i int) AppSpec {
	if len(o.AppMix) > 0 {
		return o.AppMix[i%len(o.AppMix)].withDefaults()
	}
	return o.App
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.Apps < 1 {
		o.Apps = 8
	}
	o.App = o.App.withDefaults()
	for i := range o.AppMix {
		o.AppMix[i] = o.AppMix[i].withDefaults()
	}
	if o.Duration <= 0 {
		o.Duration = 600
	}
	if o.CrushDuration <= 0 {
		o.CrushDuration = 240
	}
	if o.BackboneCrushStart > 0 && o.BackboneCrushDuration <= 0 {
		o.BackboneCrushDuration = 240
	}
	if o.RegionFailStart > 0 && o.RegionFailDuration <= 0 {
		o.RegionFailDuration = 240
	}
	if o.HostCapacity < 1 {
		o.HostCapacity = 1
	}
	if o.Routers <= 0 || o.HostsPerRouter <= 0 {
		// Auto-size: one slot per process plus one for the Remos collector.
		slots := 1
		for i := 0; i < o.Apps; i++ {
			s := o.specFor(i)
			slots += 2 + s.Groups*(s.ServersPerGroup+s.SparesPerGroup) + s.Clients
		}
		hostsNeeded := (slots + o.HostCapacity - 1) / o.HostCapacity
		if o.HostsPerRouter <= 0 {
			o.HostsPerRouter = 4
		}
		if o.Routers <= 0 {
			o.Routers = int(math.Ceil(float64(hostsNeeded) / float64(o.HostsPerRouter)))
			if o.Routers < 3 {
				o.Routers = 3
			}
			o.Routers += o.SpareRouters
		}
	}
	return o
}

// validate rejects options the kernel cannot schedule: a NaN or infinite
// value in any float64 reachable from the options (a NaN horizon never ends,
// a NaN event time panics in the kernel, an infinite request rate never lets
// time advance), a negative SpareRouters (it would shrink the auto-sized
// grid below what the apps need), a fault scheduled before t=0, and a fault
// kind applyFault does not know (a typo would otherwise be a silent no-op).
func (o ScenarioOptions) validate() error {
	if path, v, found := nonFinite(reflect.ValueOf(&o).Elem()); found {
		return fmt.Errorf("fleet: ScenarioOptions%s = %v is not finite", path, v)
	}
	if o.SpareRouters < 0 {
		return fmt.Errorf("fleet: ScenarioOptions.SpareRouters = %d is negative", o.SpareRouters)
	}
	for i, flt := range o.Faults {
		switch {
		case flt.At < 0:
			return fmt.Errorf("fleet: ScenarioOptions.Faults[%d].At = %v is not a non-negative time", i, flt.At)
		case !flt.Kind.known():
			return fmt.Errorf("fleet: ScenarioOptions.Faults[%d].Kind = %q is not a fault kind", i, flt.Kind)
		}
	}
	return nil
}

// nonFinite finds the first NaN or infinite float64 reachable from v through
// exported struct fields and slices, in declaration order, and returns its
// value and its path below v (".App.ClientRate", ".Faults[2].At"). Walking the
// type keeps the check complete as fields are added; the path is put together
// on the way back up, so a valid scenario pays for no strings.
func nonFinite(v reflect.Value) (path string, bad float64, found bool) {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// CanInterface is false exactly for unexported fields.
			if fv := v.Field(i); fv.CanInterface() {
				if p, f, ok := nonFinite(fv); ok {
					return "." + v.Type().Field(i).Name + p, f, true
				}
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p, f, ok := nonFinite(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, p), f, true
			}
		}
	}
	return "", 0, false
}

// validateRegions rejects a region failure aimed at a router the grid does not
// have: FailRegion would refuse it and the run would go on healthy, having
// injected nothing. It needs the grid's size, so it runs on defaulted options.
// Fault.App is left unchecked on purpose: the chaos shrinker lowers Apps under
// a fixed schedule and relies on a fault aimed at a missing app being a no-op.
func (o ScenarioOptions) validateRegions() error {
	onGrid := func(r int) bool { return r >= 0 && r < o.Routers }
	if o.RegionFailStart > 0 && !onGrid(o.RegionFailRouter) {
		return fmt.Errorf("fleet: ScenarioOptions.RegionFailRouter = %d is not a router of the %d-router grid", o.RegionFailRouter, o.Routers)
	}
	for i, flt := range o.Faults {
		switch flt.Kind {
		case FaultRegionFail, FaultRegionRestore, FaultRegionPartialRestore:
			if !onGrid(flt.Router) {
				return fmt.Errorf("fleet: ScenarioOptions.Faults[%d].Router = %d is not a router of the %d-router grid", i, flt.Router, o.Routers)
			}
		}
	}
	return nil
}

// ScenarioResult bundles the finished fleet with its summaries.
type ScenarioResult struct {
	Opts      ScenarioOptions
	Grid      *netsim.Grid
	Fleet     *Fleet
	Summaries []AppSummary
}

// Table renders the result's per-app table.
func (r *ScenarioResult) Table() string { return Table(r.Summaries) }

// ScenarioRun is a fully scheduled scenario that has not executed yet:
// StartScenario builds the kernel, grid and fleet and places every admission,
// fault and retirement on the kernel; Finish runs it to completion. The gap
// between the two is where a harness installs its own observers — the chaos
// checker hangs mid-run invariant tickers here before letting time run.
type ScenarioRun struct {
	Opts  ScenarioOptions
	K     *sim.Kernel
	Grid  *netsim.Grid
	Fleet *Fleet
}

// ScenarioAppName returns the name RunScenario gives app index i.
func ScenarioAppName(i int) string { return fmt.Sprintf("app%02d", i) }

// StartScenario builds one fleet run and schedules its whole script —
// admissions, retirements, the single-event crush knobs, and the explicit
// Faults schedule — without running any virtual time.
func StartScenario(opts ScenarioOptions) (*ScenarioRun, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := opts.validateRegions(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{
		Routers:        opts.Routers,
		HostsPerRouter: opts.HostsPerRouter,
		Seed:           opts.Seed,
	})
	f, err := New(k, grid, opts.Seed, Config{
		Manager:      opts.Manager,
		Adaptive:     opts.Adaptive,
		HostCapacity: opts.HostCapacity,
		Migration:    opts.Migration,
		OpenLoop:     opts.OpenLoop,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	// schedule places one fault, and its paired restore when it has a
	// Duration, on the kernel. Every injection goes through it, the
	// single-event knobs too, at the point in the script where it is built:
	// events due at the same time fire in the order they were scheduled.
	schedule := func(flt Fault) {
		k.At(flt.At, func() { f.applyFault(flt, ScenarioAppName) })
		if restore := flt.Kind.restoreKind(); restore != "" && flt.Duration > 0 {
			lift := Fault{Kind: restore, App: flt.App, Router: flt.Router}
			k.At(flt.At+flt.Duration, func() { f.applyFault(lift, ScenarioAppName) })
		}
	}
	appsPerWave := opts.Apps
	if opts.AdmitWaves > 1 {
		appsPerWave = (opts.Apps + opts.AdmitWaves - 1) / opts.AdmitWaves
	}
	for i := 0; i < opts.Apps; i++ {
		spec := opts.specFor(i)
		spec.Name = ScenarioAppName(i)
		admitAt := float64(i%appsPerWave) * opts.AdmitStagger
		if opts.AdmitWaves > 1 {
			admitAt += float64(i/appsPerWave) * (opts.Duration / float64(opts.AdmitWaves))
		}
		admit := func() {
			// Rejections are recorded on the fleet; the run continues with
			// whatever the grid could hold.
			_, _ = f.Admit(spec)
		}
		if admitAt <= 0 {
			admit()
		} else {
			k.At(admitAt, admit)
		}
		name := spec.Name
		if opts.RetireAfter > 0 {
			k.At(admitAt+opts.RetireAfter, func() {
				if a := f.App(name); a != nil && a.Live() {
					_ = f.Retire(name)
				}
			})
		}
		if opts.CrushStart >= 0 && (opts.CrushApps <= 0 || i < opts.CrushApps) {
			crushAt := opts.CrushStart + float64(i)*opts.CrushStagger
			if min := admitAt + 100; crushAt < min {
				crushAt = min
			}
			kind := FaultCrushPrimary
			if opts.CrushAllGroups {
				kind = FaultCrushAll
			}
			schedule(Fault{At: crushAt, Kind: kind, App: i, Duration: opts.CrushDuration})
		}
	}
	if opts.BackboneCrushStart > 0 {
		schedule(Fault{At: opts.BackboneCrushStart, Kind: FaultBackboneCrush,
			Fraction: 0.5, LeaveBps: 50e3, Duration: opts.BackboneCrushDuration})
	}
	if opts.RegionFailStart > 0 {
		schedule(Fault{At: opts.RegionFailStart, Kind: FaultRegionFail,
			Router: opts.RegionFailRouter, Duration: opts.RegionFailDuration})
	}
	// The explicit fault schedule, in list order.
	for _, flt := range opts.Faults {
		schedule(flt)
	}
	return &ScenarioRun{Opts: opts, K: k, Grid: grid, Fleet: f}, nil
}

// Finish runs a started scenario to completion: Duration seconds of
// scripted time, fleet stop, then a 120 s drain of in-flight transfers and
// gauge churn.
func (r *ScenarioRun) Finish() *ScenarioResult {
	r.K.Run(r.Opts.Duration)
	r.Fleet.Stop()
	r.K.Run(r.Opts.Duration + 120)
	return &ScenarioResult{Opts: r.Opts, Grid: r.Grid, Fleet: r.Fleet, Summaries: r.Fleet.Summaries()}
}

// RunScenario executes one fleet run to completion. Runs are deterministic:
// the same options (including Seed) produce identical summaries.
func RunScenario(opts ScenarioOptions) (*ScenarioResult, error) {
	run, err := StartScenario(opts)
	if err != nil {
		return nil, err
	}
	return run.Finish(), nil
}
