// Package fleet is the grid control plane: it runs N managed applications
// on one shared simulated grid, where the paper ran one.
//
// The fleet owns everything that is per-grid rather than per-application:
//
//   - Placement (placement.go): a slot-capacity scheduler (Scheduler) that
//     decides *where* an application's processes run — at admission it
//     spreads replicas across routers and ranks candidate hosts by the
//     network's available-bandwidth estimate (what a warm Remos pair
//     reports); the same machinery re-places applications
//     later (PlaceAvoiding) when the migration controller needs a healthy
//     region. Placement is a pure spatial decision: it commits slots and
//     produces an Assignment, and never touches a running process.
//   - Migration (migration.go): the fleet-level feedback loop that acts on
//     placement. Where each application's own core.Manager repairs *within*
//     its architecture (swap server groups, recruit spares), the migration
//     controller watches per-app gauge reports through the sharded
//     monitoring plane and, when sustained degradation shows intra-app
//     repair has failed, drains the application and re-places it whole —
//     new slots, re-pointed processes, monitoring plane re-anchored —
//     mid-run. Disabled (the default) it schedules nothing and the fleet
//     behaves exactly as before it existed.
//   - Lifecycle: mid-run admission (Admit) and retirement (Retire), with
//     freed slots and monitoring resources recycled for later admissions.
//   - The shared monitoring plane: one sharded probe bus, one sharded
//     gauge-report bus (bus.Bus) and one gauge manager (gauges.Manager)
//     serve the whole fleet. Admission leases an application its isolated
//     shards and gauge lease (core.Plane); retirement detaches them
//     completely — probes silenced, subscriptions removed, gauges torn
//     down — and returns the shards to the bus pools. The pre-sharding
//     one-plane-per-app design survives as the in-package reference the
//     monitoring equivalence tests compare against (Config.perAppMonitoring).
//   - Workload and measurement: targeted bandwidth contention
//     (CrushPrimary/CrushServers, refcounted across apps), correlated
//     backbone contention and region-wide failure injection
//     (CrushBackbone, FailRegion), ground-truth latency sampling, and
//     per-app summaries/fleet aggregates. scenario.go and catalog.go turn
//     these into canned, deterministic scenario runs.
//
// Each admitted application keeps its own architectural model, constraint
// registry and repair engine (core.Manager); the fleet multiplexes them
// over the shared kernel. Runs are deterministic: the same ScenarioOptions
// (including Seed) produce identical summaries.
package fleet

import (
	"fmt"
	"strings"

	"archadapt/internal/app"
	"archadapt/internal/arrivals"
	"archadapt/internal/bus"
	"archadapt/internal/core"
	"archadapt/internal/gauges"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// samplePeriod is the period of the fleet's ground-truth latency sampler.
const samplePeriod = 5.0

// Config tunes the fleet control plane.
type Config struct {
	// Manager is the per-application architecture-manager configuration.
	Manager core.Config
	// Adaptive enables repairs; false runs every manager as a pure observer
	// (the fleet-wide control run).
	Adaptive bool
	// HostCapacity is the number of process slots per grid host (default 4).
	HostCapacity int
	// Migration enables and tunes the fleet-level migration controller
	// (migration.go). The zero value disables it.
	Migration MigrationPolicy
	// OpenLoop enables and tunes the open-loop heavy-traffic engine
	// (openloop.go): aggregated flow classes driven by arrival processes,
	// replica autoscaling and fleet admission control. The zero value
	// disables it and the fleet is byte-identical to a build without the
	// engine.
	OpenLoop OpenLoopPolicy
	// Trace attaches the whole control loop — kernel, monitoring plane,
	// per-app managers, migration controller, region health — to one
	// deterministic observability tracer (internal/obs). Off (the default)
	// no tracer exists and runs are byte-identical to a build without the
	// plane; on, Fleet.Tracer() exposes the collected spans, phase latencies
	// and kernel event-rate counters.
	Trace bool

	// perAppMonitoring gives every application its own private event buses
	// and gauge manager, the pre-sharding design. It is the reference for the
	// fleet-shared monitoring plane: the two monitoring equivalence tests run
	// one script both ways and require byte-identical summaries. Only they
	// set it, and only lease and unlease read it; migration and tracing
	// read the shared plane and are not supported under it.
	perAppMonitoring bool
}

func (c Config) withDefaults() Config {
	if c.HostCapacity < 1 {
		c.HostCapacity = 4
	}
	return c
}

// AppSpec describes one managed application to admit: a replicated
// client/server system in the paper's architectural style, scaled by counts
// rather than named element lists. Element names (SG1, S1, C1, …) are scoped
// to the application; hosts are assigned by the scheduler.
type AppSpec struct {
	Name string
	// Groups is the number of server groups (default 2: a primary and an
	// alternative for bandwidth repairs to move clients to).
	Groups int
	// ServersPerGroup counts active replicas per group (default 2).
	ServersPerGroup int
	// SparesPerGroup counts additional inactive servers per group that load
	// repairs can recruit (default 0).
	SparesPerGroup int
	// Clients counts request generators (default 2).
	Clients int

	// ClientRate is requests/sec per client (default 1). RespBits is the
	// median reply size (default 8 KB, jittered per request).
	ClientRate float64
	RespBits   float64

	// Task-layer thresholds; zero values default to the paper's 2 s latency
	// bound, load 6, and 10 Kbps bandwidth floor.
	MaxLatency    float64
	MaxServerLoad float64
	MinBandwidth  float64

	// Arrivals selects the application's open-loop arrival process
	// (openloop.go); read only when Config.OpenLoop is enabled. The zero
	// value is Poisson at ClientRate per modeled user, which makes the
	// open-loop run the load-equivalent of the closed-loop one.
	Arrivals ArrivalSpec
}

func (s AppSpec) withDefaults() AppSpec {
	if s.Groups < 1 {
		s.Groups = 2
	}
	if s.ServersPerGroup < 1 {
		s.ServersPerGroup = 2
	}
	if s.SparesPerGroup < 0 {
		s.SparesPerGroup = 0
	}
	if s.Clients < 1 {
		s.Clients = 2
	}
	if s.ClientRate <= 0 {
		s.ClientRate = 1
	}
	if s.RespBits <= 0 {
		s.RespBits = 8 * 8192
	}
	if s.MaxLatency <= 0 {
		s.MaxLatency = 2
	}
	if s.MaxServerLoad <= 0 {
		s.MaxServerLoad = 6
	}
	if s.MinBandwidth <= 0 {
		s.MinBandwidth = 10e3
	}
	return s
}

// Spec expands the counts into the operators.Spec the model builder and
// deployer consume. Group i is named SGi, its servers Si_j, clients Ci.
func (s AppSpec) Spec() operators.Spec {
	spec := operators.Spec{
		Name:          s.Name,
		MaxLatency:    s.MaxLatency,
		MaxServerLoad: s.MaxServerLoad,
		MinBandwidth:  s.MinBandwidth,
	}
	for g := 1; g <= s.Groups; g++ {
		gs := operators.GroupSpec{
			Name:        fmt.Sprintf("SG%d", g),
			ActiveCount: s.ServersPerGroup,
		}
		for j := 1; j <= s.ServersPerGroup+s.SparesPerGroup; j++ {
			gs.Servers = append(gs.Servers, fmt.Sprintf("S%d_%d", g, j))
		}
		spec.Groups = append(spec.Groups, gs)
	}
	for c := 1; c <= s.Clients; c++ {
		spec.Clients = append(spec.Clients, operators.ClientSpec{
			Name:  fmt.Sprintf("C%d", c),
			Group: "SG1",
		})
	}
	return spec
}

// App is one managed application running under the fleet: its processes, its
// manager (which holds its private architectural model), and its
// ground-truth latency tally.
type App struct {
	Name   string
	Spec   AppSpec
	Opspec operators.Spec
	Assign *Assignment

	Sys *app.System
	Mgr *core.Manager

	AdmittedAt float64
	// RetiredAt is -1 while the application is live.
	RetiredAt float64

	// Migrations records every re-placement of this application (completed,
	// failed and aborted attempts alike), in decision order.
	Migrations []Migration

	obs *app.LatencyObserver
	// sampled holds each client's observer handle, in Opspec.Clients order,
	// resolved once at admission for the sampler.
	sampled []*app.ClientLatency
	// samples, above and peak tally the sampler's ground-truth points over
	// all clients: how many, how many above Spec.MaxLatency, and the worst.
	samples, above int
	peak           float64

	crushed []netsim.LinkID
	// admIdx is the application's admission sequence number — the
	// coordination layer's deterministic last tie-break.
	admIdx int
	// pending is the staged target of an in-progress migration, non-nil
	// from the decision until the cutover or abort. Its slots were taken
	// from the scheduler when it was placed, so a later placement can
	// never hand the same last slots to a second drain; that
	// commit-at-decision serializes migrations competing for the same
	// spare capacity. The cutover makes it the live assignment; an abort
	// releases its slots. health is the fleet controller's view of this
	// app (nil when migration is disabled).
	pending *Assignment
	health  *appHealth
	// ol is the app's open-loop engine state (openloop.go); nil unless
	// Config.OpenLoop is enabled.
	ol *openApp
	// probe/report are the app's leased shards on the fleet monitoring
	// plane; released back to the bus pools at retirement.
	probe, report *bus.Shard
	// traceDrain is the open drain span of an in-progress migration (zero
	// when tracing is off or no drain is running); closed at cutover or when
	// the drain is aborted by retirement or fleet stop.
	traceDrain obs.SpanID
}

// Live reports whether the application is still running.
func (a *App) Live() bool { return a.RetiredAt < 0 }

// Fleet multiplexes N managed applications over one shared kernel, network
// and Remos collector. The fleet owns the monitoring plane — one sharded
// probe bus, one sharded gauge-report bus and one gauge manager serve every
// application; apps lease shards and gauge leases at admission and return
// them at retirement. Each admitted application still gets its own model
// and repair engine; the fleet owns placement, admission, retirement, and
// metric aggregation.
type Fleet struct {
	K    *sim.Kernel
	Grid *netsim.Grid
	Net  *netsim.Network
	Rm   *remos.Service
	Sch  *Scheduler
	Cfg  Config
	// Host is the fleet's own control host (the machine carrying the Remos
	// collector); the migration controller's health subscriptions land here.
	Host netsim.NodeID

	// ProbeBus, ReportBus and Gauges are the fleet-shared monitoring plane.
	ProbeBus  *bus.Bus
	ReportBus *bus.Bus
	Gauges    *gauges.Manager

	rng        *sim.Rand
	apps       map[string]*App
	order      []string
	admitted   []*App // order, by handle: what the per-tick loops walk
	rejections []Rejection
	crushes    map[netsim.LinkID]int // contention refcount per link (apps may share hosts)
	stopSample func()

	stopMigrate func()
	stopped     bool
	// Backbone and region failures (faults.go), the regions keyed by router
	// index while they stand.
	backbone outage
	regions  map[int]*outage

	// tracer is the fleet's observability plane (nil unless Config.Trace).
	tracer *obs.Tracer

	// rh is the region health index (nil unless Migration.Ranked);
	// inFlight/peakInFlight count concurrently draining migrations;
	// migrCands is the decision tick's candidate scratch.
	rh           *RegionHealth
	inFlight     int
	peakInFlight int
	migrCands    []*App

	// ol is the open-loop engine (openloop.go); nil unless Config.OpenLoop
	// is enabled.
	ol *openLoop
}

// Rejection records a failed admission (grid full or placement error).
type Rejection struct {
	Name string
	Time float64
	Err  error
}

// New creates a fleet control plane over a generated grid. The shared Remos
// collector is reserved a slot on the least-loaded host, like the paper's
// Remos collector living on the testbed.
func New(k *sim.Kernel, grid *netsim.Grid, seed uint64, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Migration.validate(); err != nil {
		return nil, err
	}
	cfg.Migration = cfg.Migration.withDefaults()
	if err := cfg.OpenLoop.validate(); err != nil {
		return nil, err
	}
	if cfg.OpenLoop.Enabled {
		cfg.OpenLoop = cfg.OpenLoop.withDefaults()
	}
	f := &Fleet{
		K: k, Grid: grid, Net: grid.Net, Cfg: cfg,
		rng:     sim.NewRand(seed),
		apps:    map[string]*App{},
		crushes: map[netsim.LinkID]int{},
		regions: map[int]*outage{},
	}
	f.Sch = NewScheduler(grid, cfg.HostCapacity, nil)
	rmHost, err := f.Sch.Reserve()
	if err != nil {
		return nil, fmt.Errorf("fleet: placing Remos collector: %w", err)
	}
	f.Host = rmHost
	f.Rm = remos.New(k, grid.Net, rmHost)
	f.ProbeBus, f.ReportBus, f.Gauges = core.NewMonitoring(cfg.Manager, k, grid.Net, rmHost)
	if cfg.Trace {
		// One tracer spans the whole plane: the buses stamp probe samples and
		// gauge reports, each admitted manager chains model updates through
		// repairs (core.Config.Tracer rides f.Cfg.Manager into Admit), the
		// kernel hook feeds the event-rate counter, and the migration
		// controller adds the fleet-level spans.
		f.tracer = obs.New(k.Now)
		f.ProbeBus.Tracer = f.tracer
		f.ReportBus.Tracer = f.tracer
		f.Cfg.Manager.Tracer = f.tracer
		k.FireHook = f.tracer.KernelEvent
	}
	f.stopSample = k.Ticker(k.Now()+samplePeriod, samplePeriod, f.sample)
	if cfg.Migration.Enabled {
		p := cfg.Migration
		if p.Ranked {
			f.rh = newRegionHealth(f)
		}
		f.stopMigrate = k.Ticker(k.Now()+p.CheckPeriod, p.CheckPeriod, f.migrationTick)
	}
	if cfg.OpenLoop.Enabled {
		f.startOpenLoop()
	}
	return f, nil
}

// RegionHealth returns the measured region health index, or nil unless
// ranked migration targeting (Config.Migration.Ranked) is enabled.
func (f *Fleet) RegionHealth() *RegionHealth { return f.rh }

// Tracer returns the fleet's observability plane, or nil unless Config.Trace
// is enabled.
func (f *Fleet) Tracer() *obs.Tracer { return f.tracer }

// MigrationsInFlight returns how many migrations are currently draining.
func (f *Fleet) MigrationsInFlight() int { return f.inFlight }

// PeakConcurrentMigrations returns the high-water mark of concurrently
// draining migrations over the run — never above the policy's
// MaxConcurrent.
func (f *Fleet) PeakConcurrentMigrations() int { return f.peakInFlight }

// Apps returns admitted application names in admission order (including
// retired ones).
func (f *Fleet) Apps() []string { return f.order }

// App returns an application handle by name.
func (f *Fleet) App(name string) *App { return f.apps[name] }

// Rejections returns failed admissions.
func (f *Fleet) Rejections() []Rejection { return f.rejections }

// AuditSlots cross-checks the scheduler's slot ledger against the fleet's
// own books: the Remos collector's reserved slot, every live application's
// assignment and every staged mid-drain reservation must account for exactly
// the difference between grid capacity and FreeSlots, no host may be loaded
// outside [0, HostCapacity], and the index the scheduler picks from must be
// what its per-host loads recompute to. Any drift means a leaked or
// double-booked reservation somewhere in the admit/retire/migrate machinery
// — the chaos soak harness calls this after every run and on a mid-run
// ticker.
func (f *Fleet) AuditSlots() error {
	if err := f.Sch.audit(); err != nil {
		return err
	}
	used := 1 // the Remos collector's reserved slot
	for _, a := range f.admitted {
		if a.Live() {
			used += a.Assign.slots()
			if a.ol != nil {
				used += a.ol.scaledSlots()
			}
		}
		if a.pending != nil {
			used += a.pending.slots()
		}
	}
	total := len(f.Grid.Hosts) * f.Sch.HostCapacity
	if free := f.Sch.FreeSlots(); free != total-used {
		return fmt.Errorf("fleet: slot ledger drift: %d free, want %d (%d of %d slots accounted for)",
			free, total-used, used, total)
	}
	return nil
}

// Admit places and starts one application at the current virtual time. It
// can be called before the run starts or mid-run (from kernel context): the
// application's clients, gauges and control loop all schedule from Now.
// With the open-loop admission controller enabled a saturated fleet sheds
// the candidate (or queues it for retry) before placement is attempted.
func (f *Fleet) Admit(spec AppSpec) (*App, error) {
	return f.admit(spec, false)
}

// admit is Admit plus the retry flag: a retry re-offers a spec already on
// the admission queue, so the ledger's Offered/Queued counters (charged at
// the original offer) are not charged again.
func (f *Fleet) admit(spec AppSpec, retry bool) (*App, error) {
	spec = spec.withDefaults()
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("app%02d", len(f.order)+len(f.rejections))
	}
	if _, dup := f.apps[spec.Name]; dup {
		return nil, fmt.Errorf("fleet: duplicate application %q", spec.Name)
	}
	var olProc arrivals.Process
	var olUsers float64
	olGated := false
	if f.ol != nil {
		var err error
		olProc, err = spec.Arrivals.process(spec.ClientRate)
		if err != nil {
			f.rejections = append(f.rejections, Rejection{Name: spec.Name, Time: f.K.Now(), Err: err})
			return nil, err
		}
		olUsers = float64(f.ol.p.Users)
		if f.ol.p.Users <= 0 {
			olUsers = float64(spec.Clients)
		}
		if f.ol.p.Admission.Enabled {
			olGated = true
			if !retry {
				f.ol.ledger.Offered++
			}
			if !f.openLoopAdmissible(spec, olProc, olUsers, f.K.Now()) {
				if f.ol.p.Admission.Queue {
					if !retry {
						f.ol.ledger.Queued++
						f.ol.queued = append(f.ol.queued, spec)
					}
					return nil, fmt.Errorf("fleet: %q: %w", spec.Name, errAdmissionQueued)
				}
				err := fmt.Errorf("fleet: admission shed %q: offered load would saturate the fleet", spec.Name)
				f.ol.ledger.Shed++
				f.rejections = append(f.rejections, Rejection{Name: spec.Name, Time: f.K.Now(), Err: err})
				return nil, err
			}
			if retry {
				f.ol.ledger.Queued-- // leaving the queue: admitted or shed at placement
			}
		}
	}
	opspec := spec.Spec()
	assign, err := f.Sch.Place(opspec)
	if err != nil {
		if olGated {
			f.ol.ledger.Shed++
		}
		f.rejections = append(f.rejections, Rejection{Name: spec.Name, Time: f.K.Now(), Err: err})
		return nil, err
	}

	a := &App{
		Name: spec.Name, Spec: spec, Opspec: opspec, Assign: assign,
		AdmittedAt: f.K.Now(),
		RetiredAt:  -1,
	}

	// Internal admission failures below release the placement; they count
	// as sheds so the admission ledger stays balanced.
	fail := func(err error) (*App, error) {
		f.Sch.Release(assign)
		if olGated {
			f.ol.ledger.Shed++
		}
		return nil, err
	}

	// Application processes on the shared network, with their private
	// architectural model; the manager runs over the shared kernel/Remos.
	sys, mdl, err := operators.Deploy(f.K, f.Net, opspec, operators.Placement{
		ServerHosts: assign.ServerHosts, ClientHosts: assign.ClientHosts,
		QueueHost: assign.QueueHost, ManagerHost: assign.ManagerHost,
		ClientRate: spec.ClientRate, ClientRespBits: spec.RespBits,
	}, f.rng, "app:"+spec.Name+":")
	if err != nil {
		return fail(err)
	}
	a.Sys = sys
	cfg := f.Cfg.Manager
	cfg.DisableRepairs = !f.Cfg.Adaptive
	plane, err := f.lease(a)
	if err != nil {
		return fail(err)
	}
	a.Mgr = core.NewAttached(cfg, f.K, f.Net, sys, mdl, assign.ManagerHost, f.Rm, plane)

	// Ground-truth latency sampling (window average, or the age of the
	// oldest outstanding request while a client is wedged).
	var clientNames []string
	for _, c := range opspec.Clients {
		clientNames = append(clientNames, c.Name)
	}
	a.obs = app.ObserveLatency(sys, clientNames, 30)
	for _, name := range clientNames {
		a.sampled = append(a.sampled, a.obs.Client(name))
	}

	a.Mgr.Deploy()
	sys.Start()
	a.admIdx = len(f.order)
	f.apps[spec.Name] = a
	f.order = append(f.order, spec.Name)
	f.admitted = append(f.admitted, a)
	if f.Cfg.Migration.Enabled {
		f.attachHealth(a)
	}
	if f.ol != nil {
		f.openLoopRegister(a, olProc, olUsers, olGated)
	}
	return a, nil
}

// Retire stops an application and returns its slots to the scheduler.
// In-flight transfers drain naturally; the handle (and its latency tally)
// survive for fleet summaries.
func (f *Fleet) Retire(name string) error {
	a := f.apps[name]
	if a == nil {
		return fmt.Errorf("fleet: no application %q", name)
	}
	if !a.Live() {
		return fmt.Errorf("fleet: application %q already retired", name)
	}
	if a.pending != nil {
		// Retired mid-drain: abort the migration and return the staged
		// target's slots. The drain poller sees no pending target and
		// stops; the clients stay paused — they are being retired.
		f.abortDrain(a, nil, false)
	}
	// The fleet's health subscription (migration controller) dies with the
	// report shard.
	f.unlease(a)
	a.health = nil
	a.Sys.StopClients()
	if a.ol != nil {
		f.openLoopTeardown(a, false)
		f.openLoopRetired(a)
	}
	f.RestorePrimary(name)
	f.Sch.Release(a.Assign)
	a.RetiredAt = f.K.Now()
	return nil
}

// lease leases a its slice of the fleet-shared monitoring plane at its
// manager host: a gauge lease, then a probe and a report shard, both
// labelled with the application's name (the label names this tenant in every
// span the bus stamps). Under perAppMonitoring it leases nothing, and the
// zero plane makes core.NewAttached build the app's private buses and gauge
// manager.
func (f *Fleet) lease(a *App) (core.Plane, error) {
	if f.Cfg.perAppMonitoring {
		return core.Plane{}, nil
	}
	gl, err := f.Gauges.Lease(a.Name, a.Assign.ManagerHost)
	if err != nil {
		return core.Plane{}, err
	}
	a.probe, a.report = f.ProbeBus.Acquire(), f.ReportBus.Acquire()
	a.probe.Label, a.report.Label = a.Name, a.Name
	return core.Plane{Probe: a.probe, Report: a.report, Gauges: gl}, nil
}

// unlease fully detaches a's manager from the shared plane (probes
// silenced, report subscription removed, gauge lease closed) and returns
// its shards to the bus pools for the next admission. Under
// perAppMonitoring it only stops the manager: the reference keeps its
// private monitoring running after retirement.
func (f *Fleet) unlease(a *App) {
	if f.Cfg.perAppMonitoring {
		a.Mgr.Stop()
		return
	}
	a.Mgr.Shutdown()
	a.probe.Release()
	a.report.Release()
	a.probe, a.report = nil, nil
}

// Stop halts every live application and the fleet sampler (end of run).
// Unlike Retire it does not release a live application's slots — the run
// is over. In-progress migration drains are aborted: their staged
// targets' slots are returned so the scheduler ledger and the in-flight
// counter stay consistent for post-run inspection.
func (f *Fleet) Stop() {
	f.stopped = true
	if f.stopSample != nil {
		f.stopSample()
		f.stopSample = nil
	}
	if f.stopMigrate != nil {
		f.stopMigrate()
		f.stopMigrate = nil
	}
	f.stopOpenLoop()
	for _, a := range f.admitted {
		if a.Live() {
			if a.pending != nil {
				f.abortDrain(a, nil, false)
			}
			a.Mgr.Stop()
			a.Sys.StopClients()
		}
	}
}

// Close is a no-op: the fleet owns no goroutines or OS resources. It is kept
// because embedders and the frozen benchmark adapter call it (see ROADMAP).
func (f *Fleet) Close() {}

// sample tallies each live application's per-client ground-truth latency,
// in admission order.
func (f *Fleet) sample(now float64) {
	for _, a := range f.admitted {
		if !a.Live() {
			continue
		}
		for _, c := range a.sampled {
			if v, ok := c.Sample(now); ok {
				a.samples++
				if v > a.Spec.MaxLatency {
					a.above++
				}
				if v > a.peak {
					a.peak = v
				}
			}
		}
	}
}

// AppSummary is one application's aggregate row.
type AppSummary struct {
	Name       string
	AdmittedAt float64
	RetiredAt  float64 // -1 if still live at fleet stop

	Clients, Servers int
	Responses        uint64
	Dropped          uint64

	// PeakLatency is the worst sampled client latency; FracAboveBound the
	// fraction of (client, sample) points above the app's latency bound.
	PeakLatency    float64
	FracAboveBound float64

	Repairs, Moves, Alerts int
	MeanRepairSeconds      float64

	// Migrations counts completed fleet-level re-placements of this app.
	Migrations int

	// ScaleUps and ScaleDowns count the open-loop autoscaler's replica
	// additions and removals for this app. Zero on closed-loop runs.
	ScaleUps, ScaleDowns int

	// Phases holds the app's adaptation phase-latency distributions
	// (detect/decide/drain/recover), collected by the observability plane.
	// Nil when the fleet ran untraced; non-nil (possibly empty) on every
	// summary of a traced run.
	Phases *obs.PhaseSet
}

// Summarize aggregates one application.
func (a *App) Summarize() AppSummary {
	s := AppSummary{
		Name:       a.Name,
		AdmittedAt: a.AdmittedAt,
		RetiredAt:  a.RetiredAt,
		Clients:    len(a.Opspec.Clients),
		Servers:    len(a.Sys.Servers()),
		Dropped:    a.Sys.DroppedRequests(),
	}
	for _, c := range a.Opspec.Clients {
		s.Responses += a.Sys.Client(c.Name).Responses()
	}
	s.PeakLatency = a.peak
	if a.samples > 0 {
		s.FracAboveBound = float64(a.above) / float64(a.samples)
	}
	spans := a.Mgr.Spans()
	s.Repairs = len(spans)
	for _, sp := range spans {
		s.MeanRepairSeconds += sp.Duration()
		for _, op := range sp.Ops {
			if op.Kind == repair.OpMoveClient {
				s.Moves++
			}
		}
	}
	if s.Repairs > 0 {
		s.MeanRepairSeconds /= float64(s.Repairs)
	}
	s.Alerts = a.Mgr.AlertCount()
	for _, m := range a.Migrations {
		if m.Completed() {
			s.Migrations++
		}
	}
	if a.ol != nil {
		s.ScaleUps, s.ScaleDowns = a.ol.ups, a.ol.downs
	}
	return s
}

// Summaries aggregates every admitted application, in admission order. On a
// traced fleet each summary additionally carries the app's phase-latency
// distributions.
func (f *Fleet) Summaries() []AppSummary {
	if len(f.admitted) == 0 {
		return nil
	}
	out := make([]AppSummary, len(f.admitted))
	for i, a := range f.admitted {
		out[i] = a.Summarize()
	}
	if f.tracer != nil {
		for i := range out {
			if out[i].Phases = f.tracer.PhasesFor(out[i].Name); out[i].Phases == nil {
				out[i].Phases = &obs.PhaseSet{}
			}
		}
	}
	return out
}

// Totals is the fleet-level aggregate.
type Totals struct {
	Apps, Live, Retired    int
	Responses, Dropped     uint64
	Repairs, Moves, Alerts int
	Migrations             int
	ScaleUps, ScaleDowns   int
	// WorstFracAboveBound is the worst per-app violation fraction — the
	// fleet's SLO headline.
	WorstFracAboveBound float64
}

// Aggregate folds per-app summaries into fleet totals.
func Aggregate(sums []AppSummary) Totals {
	var t Totals
	t.Apps = len(sums)
	for _, s := range sums {
		if s.RetiredAt >= 0 {
			t.Retired++
		} else {
			t.Live++
		}
		t.Responses += s.Responses
		t.Dropped += s.Dropped
		t.Repairs += s.Repairs
		t.Moves += s.Moves
		t.Alerts += s.Alerts
		t.Migrations += s.Migrations
		t.ScaleUps += s.ScaleUps
		t.ScaleDowns += s.ScaleDowns
		if s.FracAboveBound > t.WorstFracAboveBound {
			t.WorstFracAboveBound = s.FracAboveBound
		}
	}
	return t
}

// Table renders per-app summaries as a fixed-width table.
func Table(sums []AppSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %9s %9s %6s %6s %9s %8s %8s %7s %6s %6s %5s %11s\n",
		"app", "admitted", "retired", "cli", "srv", "responses", "dropped",
		"peak-lat", ">bound%", "reps", "moves", "migs", "mean-repair")
	for _, s := range sums {
		retired := "-"
		if s.RetiredAt >= 0 {
			retired = fmt.Sprintf("%.0f", s.RetiredAt)
		}
		fmt.Fprintf(&b, "%-8s %9.0f %9s %6d %6d %9d %8d %7.2fs %6.1f%% %6d %6d %5d %10.1fs\n",
			s.Name, s.AdmittedAt, retired, s.Clients, s.Servers, s.Responses, s.Dropped,
			s.PeakLatency, 100*s.FracAboveBound, s.Repairs, s.Moves, s.Migrations,
			s.MeanRepairSeconds)
	}
	t := Aggregate(sums)
	fmt.Fprintf(&b, "fleet: apps=%d live=%d retired=%d responses=%d dropped=%d repairs=%d moves=%d alerts=%d migrations=%d worst>bound=%.1f%%\n",
		t.Apps, t.Live, t.Retired, t.Responses, t.Dropped, t.Repairs, t.Moves, t.Alerts,
		t.Migrations, 100*t.WorstFracAboveBound)
	b.WriteString(phaseBlock(sums))
	return b.String()
}

// phaseDists formats one PhaseSet as per-phase p50/p95/p99 columns.
func phaseDists(b *strings.Builder, ps *obs.PhaseSet) {
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		d := ps.Dist(p)
		if d.N() == 0 {
			fmt.Fprintf(b, " %18s", "-")
			continue
		}
		fmt.Fprintf(b, " %18s", fmt.Sprintf("%.1f/%.1f/%.1f", d.Percentile(50), d.Percentile(95), d.Percentile(99)))
	}
	b.WriteByte('\n')
}

// phaseBlock renders the phase-latency table for traced summaries: one row
// per app plus a fleet-wide merge. Empty when the run was untraced (no
// summary carries phases).
func phaseBlock(sums []AppSummary) string {
	any := false
	for _, s := range sums {
		if s.Phases != nil {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase latency p50/p95/p99 (s): %-8s", "app")
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		fmt.Fprintf(&b, " %18s", p.String())
	}
	b.WriteByte('\n')
	all := &obs.PhaseSet{}
	for _, s := range sums {
		if s.Phases == nil {
			continue
		}
		all.Merge(s.Phases)
		fmt.Fprintf(&b, "%30s %-8s", "", s.Name)
		phaseDists(&b, s.Phases)
	}
	fmt.Fprintf(&b, "%30s %-8s", "", "fleet")
	phaseDists(&b, all)
	return b.String()
}

// ComparePair is one application's summaries across two same-seed runs —
// a control/baseline run (A) and the run under test (B). ComparePairs is
// the data behind CompareTable; tests assert on it directly.
type ComparePair struct {
	Name string
	A, B AppSummary
}

// ComparePairs pairs summaries by application name, in A order. Apps missing
// from B (e.g. rejected there) are skipped.
func ComparePairs(a, b []AppSummary) []ComparePair {
	byName := map[string]AppSummary{}
	for _, s := range b {
		byName[s.Name] = s
	}
	var out []ComparePair
	for _, s := range a {
		other, ok := byName[s.Name]
		if !ok {
			continue
		}
		out = append(out, ComparePair{Name: s.Name, A: s, B: other})
	}
	return out
}

// CompareTable renders a per-app comparison of two same-seed runs (the fleet
// version of the paper's Figures 8 vs 11): control vs adaptive, or pinned vs
// migrating. Rows pair by app name in the first run's order; the reps/moves/
// migs column describes the second run.
func CompareTable(control, adaptive []AppSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %16s %18s %14s %15s\n",
		"app", ">bound% A→B", "peak-lat A→B", "resp A→B", "reps/moves/migs")
	for _, p := range ComparePairs(control, adaptive) {
		c, a := p.A, p.B
		fmt.Fprintf(&b, "%-8s %6.1f%% → %5.1f%% %7.2fs → %5.2fs %6d → %5d %8d/%d/%d\n",
			p.Name, 100*c.FracAboveBound, 100*a.FracAboveBound,
			c.PeakLatency, a.PeakLatency, c.Responses, a.Responses,
			a.Repairs, a.Moves, a.Migrations)
	}
	// Phase latencies describe the run under test (B).
	b.WriteString(phaseBlock(adaptive))
	return b.String()
}
