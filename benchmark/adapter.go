package main

// adapter.go is the only file of the benchmark that imports the simulator.
// Everything the benchmark measures goes through the public functions and
// public counters named here, so a change to the simulator's configuration
// or API surface is an edit to this file and not to a workload, a metric or
// a check.

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"archadapt/internal/acme"
	"archadapt/internal/app"
	"archadapt/internal/arrivals"
	"archadapt/internal/bus"
	"archadapt/internal/chaos"
	"archadapt/internal/constraint"
	"archadapt/internal/core"
	"archadapt/internal/experiment"
	"archadapt/internal/fleet"
	"archadapt/internal/gauges"
	"archadapt/internal/metrics"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/queueing"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
	paperload "archadapt/internal/workload"
)

// drainSeconds is how long a fleet run drains after its clients stop
// (ScenarioRun.Finish's constant).
const drainSeconds = 120

// windowSeconds is the traced run's window: the kernel is driven in steps of
// this many simulated seconds, each one span and one counter snapshot.
const windowSeconds = 60

// options turns a scenario into the simulator's options. Only fields the
// ROADMAP keeps are set: no Shards, Workers or oracle flags.
func (sc *scenario) options(seed uint64, traced bool) fleet.ScenarioOptions {
	o := fleet.ScenarioOptions{
		Apps: sc.Apps, Seed: seed, Duration: sc.Duration, Adaptive: true, Trace: traced,
		SpareRouters: sc.SpareRouters,
		AdmitWaves:   sc.AdmitWaves, AdmitStagger: sc.AdmitStagger, RetireAfter: sc.RetireAfter,
		CrushStart: sc.CrushStart, CrushStagger: sc.CrushStagger, CrushDuration: sc.CrushDuration,
		CrushApps: sc.CrushApps, CrushAllGroups: sc.CrushAllGroups,
		RegionFailStart: sc.RegionFailStart, RegionFailDuration: sc.RegionFailDuration, RegionFailRouter: sc.RegionFailRouter,
		BackboneCrushStart: sc.BackboneCrushStart, BackboneCrushDuration: sc.BackboneCrushDuration,
	}
	if sc.RankedMigration {
		o.Migration = fleet.MigrationPolicy{Enabled: true, Ranked: true}
	}
	if s := sc.Surge; s != nil {
		o.App.Arrivals = fleet.ArrivalSpec{
			Kind: fleet.ArrivalDiurnal, Base: s.Base, Swing: s.Swing, Period: s.Period,
			BurstAt: s.BurstAt, BurstDuration: s.BurstDuration, BurstFactor: s.BurstFactor,
		}
		o.OpenLoop = fleet.OpenLoopPolicy{
			Enabled: true, Users: s.Users,
			Scale:     fleet.ScalePolicy{Enabled: true},
			Admission: fleet.AdmissionPolicy{Enabled: true},
		}
	}
	return o
}

// started is a repetition after its set-up phase. run executes the run phase
// and returns the outcome; a non-nil recorder makes it the traced drive.
type started interface {
	run(rec *recorder) *outcome
}

// setUp executes a workload's set-up phase for one repetition. traced asks
// for the simulator's observability plane, which only the traced repetition
// turns on.
func (w *workload) setUp(seed uint64, traced bool) (started, error) {
	if w.fleet == nil {
		return paperSetUp(seed), nil
	}
	run, err := fleet.StartScenario(w.fleet.options(seed, traced))
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", w.name, err)
	}
	return &fleetRun{ScenarioRun: run}, nil
}

type fleetRun struct {
	*fleet.ScenarioRun
	kinds kindTally
}

func (r *fleetRun) run(rec *recorder) *outcome {
	if rec == nil {
		return fleetOutcome(r.Finish())
	}
	// The five lines of ScenarioRun.Finish on a single kernel, with a span
	// around each and the kernel stepped in windows.
	end := r.Opts.Duration
	for w, t := 0, 0.0; t < end; w++ {
		t = min(t+windowSeconds, end)
		id := rec.begin(fmt.Sprintf("kernel.run.w%03d", w))
		r.K.Run(t)
		rec.end(id)
		rec.snapshot(t, r.counters())
	}
	id := rec.begin("fleet.stop")
	r.Fleet.Stop()
	rec.end(id)
	id = rec.begin("kernel.drain")
	r.K.Run(end + drainSeconds)
	rec.end(id)
	id = rec.begin("fleet.summaries")
	res := &fleet.ScenarioResult{Opts: r.Opts, Grid: r.Grid, Fleet: r.Fleet, Summaries: r.Fleet.Summaries()}
	rec.end(id)
	id = rec.begin("fleet.close")
	r.Fleet.Close()
	rec.end(id)
	rec.snapshot(end+drainSeconds, r.counters())
	o := fleetOutcome(res)
	rec.phases = mergedPhaseP50(res.Summaries)
	return o
}

// Counter names of the traced run's snapshots. Kinds of the simulator's own
// tracer follow as "obs.kind.<kind>".
const (
	cExecuted       = "sim.kernel.executed"
	cSolves         = "netsim.solver.solves"
	cComponents     = "netsim.solver.components"
	cFlowsCompleted = "netsim.flows.completed"
	cMsgsSent       = "netsim.msgs.sent"
	cMsgLag         = "netsim.msgs.total_lag_sim_s"
	cRemosQueries   = "remos.queries"
	cRemosCold      = "remos.cold_queries"
	cGaugeOps       = "gauges.lifecycle_ops"
	cGaugeProtocol  = "gauges.protocol_sim_s"
	cBusShards      = "bus.shards_acquired"
	cReports        = "core.reports"
	cChecks         = "core.checks"
	cViolations     = "constraint.violations"
	cSpans          = "obs.spans"
	cKindPrefix     = "obs.kind."
)

// kindCounter names the snapshot counter of one span kind of the simulator's
// tracer.
func kindCounter(kind string) string { return cKindPrefix + kind }

// Span kinds the per-layer metrics read.
var (
	kindProbeSample   = obs.KindProbeSample.String()
	kindGaugeUpdate   = obs.KindGaugeUpdate.String()
	kindGaugeReport   = obs.KindGaugeReport.String()
	kindModelUpdate   = obs.KindModelUpdate.String()
	kindRepairDecide  = obs.KindRepairDecide.String()
	kindOp            = obs.KindOp.String()
	kindVerdict       = obs.KindVerdict.String()
	kindMigrateDecide = obs.KindMigrateDecide.String()
	kindRegionHealth  = obs.KindRegionHealth.String()
)

// networkCounters reads the public counters of one kernel, network and Remos
// collector into c, adding to what is there.
func networkCounters(c map[string]float64, k *sim.Kernel, net *netsim.Network, rm *remos.Service) {
	c[cExecuted] += float64(k.Executed())
	st := net.Stats()
	c[cSolves] += float64(st.Solves)
	c[cComponents] += float64(st.Components)
	c[cFlowsCompleted] += float64(net.CompletedFlows())
	ms := net.MessageStats()
	c[cMsgsSent] += float64(ms.Sent)
	c[cMsgLag] += ms.TotalLag
	c[cRemosQueries] += float64(rm.Queries())
	c[cRemosCold] += float64(rm.ColdQueries())
}

// kindTally counts one tracer's spans by kind, what Tracer.CountKind gives
// for every kind, reading only the spans recorded since the last snapshot.
type kindTally struct {
	seen   int
	counts map[string]float64
}

// add brings the tally up to date with tr and adds it to c.
func (t *kindTally) add(c map[string]float64, tr *obs.Tracer) {
	if t.counts == nil {
		t.counts = map[string]float64{}
	}
	spans := tr.Spans()
	for _, sp := range spans[t.seen:] {
		t.counts[kindCounter(sp.Kind.String())]++
	}
	t.seen = len(spans)
	c[cSpans] += float64(t.seen)
	for name, n := range t.counts {
		c[name] += n
	}
}

func managerCounters(c map[string]float64, m *core.Manager) {
	c[cReports] += float64(m.Reports())
	c[cChecks] += float64(m.Checks())
	c[cViolations] += float64(m.ViolationsSeen())
}

func (r *fleetRun) counters() map[string]float64 {
	f := r.Fleet
	c := map[string]float64{}
	networkCounters(c, r.K, f.Net, f.Rm)
	creates, deletes, retargets := f.Gauges.Counts()
	c[cGaugeOps] = float64(creates + deletes + retargets)
	c[cGaugeProtocol] = f.Gauges.ProtocolTime()
	c[cBusShards] = float64(f.ProbeBus.ShardsAcquired() + f.ReportBus.ShardsAcquired())
	for _, name := range f.Apps() {
		managerCounters(c, f.App(name).Mgr)
	}
	r.kinds.add(c, f.Tracer())
	return c
}

func fleetOutcome(res *fleet.ScenarioResult) *outcome {
	f := res.Fleet
	o := &outcome{
		apps:       len(res.Summaries),
		executed:   f.K.Executed(),
		rejections: len(f.Rejections()),
		freeSlots:  f.Sch.FreeSlots(),
		audit:      f.AuditSlots(),
	}
	for _, s := range res.Summaries {
		o.fracAbove += s.FracAboveBound / float64(len(res.Summaries))
		o.repairs += s.Repairs
		o.repairSeconds += s.MeanRepairSeconds * float64(s.Repairs)
		o.repairsByApp = append(o.repairsByApp, s.Repairs)
		o.alerts += s.Alerts
		o.responses += s.Responses
		o.dropped += s.Dropped
		o.scaleUps += s.ScaleUps
		o.scaleDowns += s.ScaleDowns
		if s.RetiredAt >= 0 {
			o.retired++
		}
	}
	for _, name := range f.Apps() {
		for _, m := range f.App(name).Migrations {
			if m.Completed() {
				o.migCompleted++
			} else if m.Aborted() {
				o.migAborted++
			}
		}
	}
	if led, ok := f.OpenLoopLedger(); ok {
		o.offered, o.admitted, o.shed, o.queued = led.Offered, led.Admitted, led.Shed, led.Queued
	}
	// The traced twin differs from the timed run only in carrying phase
	// distributions; with those cleared the two must fingerprint alike.
	sums := append([]fleet.AppSummary(nil), res.Summaries...)
	for i := range sums {
		sums[i].Phases = nil
	}
	plain := *res
	plain.Summaries = sums
	o.fingerprint = sha256.Sum256([]byte(chaos.Fingerprint(&plain)))
	o.summaries = sums
	return o
}

// mergedPhaseP50 is the median detect/decide/drain/recover latency over every
// app of a traced run, keyed by phase name.
func mergedPhaseP50(sums []fleet.AppSummary) map[string]float64 {
	all := &obs.PhaseSet{}
	for _, s := range sums {
		if s.Phases != nil {
			all.Merge(s.Phases)
		}
	}
	out := map[string]float64{}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if d := all.Dist(p); d.N() > 0 {
			out[p.String()] = d.Percentile(50)
		}
	}
	return out
}

// sameOutputs reports whether a traced repetition reproduced its timed twin.
func sameOutputs(timed, traced *outcome) bool {
	return timed.fingerprint == traced.fingerprint && reflect.DeepEqual(timed.summaries, traced.summaries) &&
		(timed.executed == 0 || timed.executed == traced.executed)
}

// --- paper-testbed ---------------------------------------------------------

// paperConfigs are the three section 5 runs of one paper-testbed repetition.
var paperConfigs = []struct {
	name string
	opts experiment.Options
}{
	{"control", experiment.Options{}},
	{"adaptive", experiment.Options{Adaptive: true}},
	{"extended", experiment.Options{Adaptive: true, Oscillate: true, Cfg: core.Config{
		GaugeCaching: true, SettleTime: 20, OscillationWindow: 300, OscillationMoves: 3, DampFactor: 6,
	}}},
}

type paperRep struct {
	seed uint64
	// results keeps the finished runs referenced, so what they retain counts
	// as live memory like a finished fleet does.
	results [3]*experiment.Results
}

// paperSetUp is paper-testbed's set-up phase: the Figure 6 testbed built and
// the Figure 7 schedule installed. experiment.Run does both again inside the
// run phase, so what is built here is only timed and dropped.
func paperSetUp(seed uint64) started {
	tb := experiment.NewTestbed(seed)
	paperload.Paper(tb.Net, tb.App, tb.Links, sim.NewRand(seed^paperWorkloadSalt)).Install(tb.K)
	return &paperRep{seed: seed}
}

// paperWorkloadSalt separates the workload's random stream from the
// clients', as experiment.Run does.
const paperWorkloadSalt = 0x9e3779b97f4a7c15

func (p *paperRep) run(rec *recorder) *outcome {
	var sums [3]experiment.Summary
	counters := map[string]float64{}
	for i, cfg := range paperConfigs {
		opts := cfg.opts
		opts.Seed = p.seed
		if rec == nil {
			p.results[i] = experiment.Run(opts)
		} else {
			id := rec.begin("paper." + cfg.name)
			p.results[i] = tracedPaperRun(opts, rec, float64(i)*(paperload.RunEnd+paperDrainSeconds), counters)
			rec.end(id)
		}
		sums[i] = p.results[i].Summarize()
	}
	return paperOutcomeOf(sums, uint64(counters[cExecuted]))
}

func paperOutcomeOf(sums [3]experiment.Summary, executed uint64) *outcome {
	control, adaptive := sums[0], sums[1]
	o := &outcome{
		apps:      len(sums),
		executed:  executed,
		fracAbove: adaptive.FracAbove2s,
		paper: &paperOutcome{
			controlFrac: control.FracAbove2s, controlFinalFrac: control.FinalPhaseFracAbove2s,
			adaptiveFrac: adaptive.FracAbove2s, adaptiveFinalFrac: adaptive.FinalPhaseFracAbove2s,
			firstViolation: control.FirstViolationAt,
			meanRepair:     adaptive.MeanRepairSeconds,
			moves:          adaptive.Moves,
		},
	}
	for _, s := range sums {
		o.repairs += s.Repairs
		o.repairSeconds += s.MeanRepairSeconds * float64(s.Repairs)
		o.alerts += s.Alerts
		o.responses += s.Responses
	}
	o.fingerprint = sha256.Sum256([]byte(fmt.Sprintf("%+v", sums)))
	o.summaries = sums
	return o
}

// paperDrainSeconds is experiment.Run's drain after the clients stop.
const paperDrainSeconds = 300

// tracedPaperRun is experiment.Run assembled from the same public pieces with
// the simulator's tracer attached and the kernel stepped in windows. simBase
// offsets this run's snapshots on the trace's simulated-time axis; done
// accumulates the counters of the runs already finished. The traced/timed
// comparison fails if this assembly and experiment.Run ever diverge.
func tracedPaperRun(opts experiment.Options, rec *recorder, simBase float64, done map[string]float64) *experiment.Results {
	const samplePeriod = 5
	opts.Duration = paperload.RunEnd
	id := rec.begin("testbed.build")
	tb := experiment.NewTestbed(opts.Seed)
	tr := obs.New(tb.K.Now)
	cfg := opts.Cfg
	cfg.DisableRepairs = !opts.Adaptive
	cfg.Tracer = tr
	// core.New's private monitoring plane, built here so the buses carry the
	// tracer and the gauge manager's protocol time can be read.
	host := tb.Hosts["mS4"]
	probeBus, reportBus := bus.New(tb.K, tb.Net), bus.New(tb.K, tb.Net)
	probeBus.Priority, reportBus.Priority = cfg.MonitoringPriority, cfg.MonitoringPriority
	probeBus.Tracer, reportBus.Tracer = tr, tr
	gm := gauges.NewManager(tb.K, tb.Net, host)
	gm.Caching, gm.Priority = cfg.GaugeCaching, cfg.MonitoringPriority
	mgr := core.NewAttached(cfg, tb.K, tb.Net, tb.App, tb.Model, host, tb.Rm,
		core.Plane{Probe: probeBus.Default(), Report: reportBus.Default(), Gauges: gm.DefaultLease()})
	tb.Mgr = mgr
	mgr.Deploy()
	paperload.Paper(tb.Net, tb.App, tb.Links, sim.NewRand(opts.Seed^paperWorkloadSalt)).Install(tb.K)
	if opts.Oscillate {
		paperload.Oscillator(tb.Net, tb.Links, paperload.PhaseBWEnd, paperload.PhaseLoadEnd, 60).Install(tb.K)
	}
	res := &experiment.Results{
		Opts:      opts,
		Latency:   map[string]*metrics.Series{},
		Queue:     map[string]*metrics.Series{},
		Bandwidth: map[string]*metrics.Series{},
		Clients:   tb.App.Clients(),
		Groups:    tb.App.Groups(),
	}
	lat := app.ObserveLatency(tb.App, tb.App.Clients(), 30)
	for _, name := range tb.App.Clients() {
		res.Latency[name] = metrics.NewSeries("latency:" + name)
		res.Bandwidth[name] = metrics.NewSeries("bandwidth:" + name)
	}
	for _, g := range tb.App.Groups() {
		res.Queue[g] = metrics.NewSeries("queue:" + g)
	}
	tb.K.Ticker(samplePeriod, samplePeriod, func(now float64) {
		for _, name := range tb.App.Clients() {
			if v, ok := lat.Sample(name, now); ok {
				res.Latency[name].Add(now, v)
			}
			cli := tb.App.Client(name)
			if hosts := tb.App.ActiveServersOf(cli.Group); len(hosts) > 0 {
				sh := tb.App.Server(hosts[0]).Host
				res.Bandwidth[name].Add(now, tb.Net.AvailBandwidth(sh, cli.Host)/1e6)
			}
		}
		for _, g := range tb.App.Groups() {
			res.Queue[g].Add(now, float64(tb.App.QueueLen(g)))
		}
	})
	rec.end(id)

	var kinds kindTally
	counters := func() map[string]float64 {
		c := map[string]float64{}
		for k, v := range done {
			c[k] = v
		}
		networkCounters(c, tb.K, tb.Net, tb.Rm)
		creates, deletes, retargets := gm.Counts()
		c[cGaugeOps] += float64(creates + deletes + retargets)
		c[cGaugeProtocol] += gm.ProtocolTime()
		managerCounters(c, mgr)
		kinds.add(c, tr)
		return c
	}
	for w, t := 0, 0.0; t < opts.Duration; w++ {
		t = min(t+windowSeconds, opts.Duration)
		id := rec.begin(fmt.Sprintf("kernel.run.w%03d", w))
		tb.K.Run(t)
		rec.end(id)
		rec.snapshot(simBase+t, counters())
	}
	id = rec.begin("manager.stop")
	mgr.Stop()
	tb.App.StopClients()
	rec.end(id)
	id = rec.begin("kernel.drain")
	tb.K.Run(opts.Duration + paperDrainSeconds)
	rec.end(id)

	id = rec.begin("results")
	res.Spans = mgr.Spans()
	res.Alerts = mgr.Alerts()
	res.ActiveServers = map[string][]string{}
	for _, g := range tb.App.Groups() {
		res.ActiveServers[g] = tb.App.ActiveServersOf(g)
	}
	res.ClientGroups = map[string]string{}
	res.Responses = map[string]uint64{}
	for _, c := range tb.App.Clients() {
		res.ClientGroups[c] = tb.App.Client(c).Group
		res.Responses[c] = tb.App.Client(c).Responses()
	}
	res.Dropped = tb.App.DroppedRequests()
	rec.end(id)
	final := counters()
	rec.snapshot(simBase+opts.Duration+paperDrainSeconds, final)
	for k, v := range final {
		done[k] = v
	}
	return res
}

// --- layer probes -----------------------------------------------------------

// layerProbes are fixed-work drivers over public functions of one layer each.
// A driver builds its fixture from the seed and adds samples to the set.
var layerProbes = []func(seed uint64, ps probeSet){
	probeKernel, probeGrid, probeSolver, probeBus, probeGauges, probeModel,
	probeRepair, probeAcme, probeRemos, probePlacement, probeOpenLoop,
}

// probeSink keeps probe results observable so no measured call is dropped.
var probeSink float64

func probeKernel(seed uint64, ps probeSet) {
	const pending = 16384
	rng := sim.NewRand(seed)

	// A self-rescheduling chain over 16k pending events: every event, when it
	// fires, schedules itself one simulated second on.
	k := sim.NewKernel()
	var fire func()
	fire = func() { k.AtAnon(k.Now()+1, fire) }
	for i := 0; i < pending; i++ {
		k.AtAnon(rng.Float64(), fire)
	}
	const seconds = 12
	ps.timeBatches("sim.kernel.ns_per_event", time.Nanosecond, pending*seconds, func(b int) {
		k.Run(float64((b + 1) * seconds))
	})

	k = sim.NewKernel()
	events := make([]*sim.Event, pending)
	for i := range events {
		events[i] = k.At(1+rng.Float64(), func() {})
	}
	ps.timeOps("sim.kernel.reschedule_ns", time.Nanosecond, 200_000, func(i int) {
		k.Reschedule(events[i%pending], 1+float64(i%977)/977)
	})

	k = sim.NewKernel()
	const tickers = 1024
	ticks := 0
	for i := 0; i < tickers; i++ {
		k.Ticker(rng.Float64(), 1, func(sim.Time) { ticks++ })
	}
	const tickSeconds = 128
	ps.timeBatches("sim.kernel.ticker_ns", time.Nanosecond, tickers*tickSeconds, func(b int) {
		k.Run(float64((b + 1) * tickSeconds))
	})
	probeSink += float64(ticks)
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func probeGrid(seed uint64, ps probeSet) {
	// fleet-scale's grid. Routing is cold once per grid, so every batch
	// generates its own.
	const pairs = 1800
	for b := 0; b < probeBatches; b++ {
		rng := sim.NewRand(seed + uint64(b))
		t0 := time.Now()
		g := netsim.GenerateGrid(sim.NewKernel(), netsim.GridSpec{Routers: 513, HostsPerRouter: 4, Seed: seed + uint64(b)})
		ps.add("netsim.grid.generate_ms", float64(time.Since(t0))/float64(time.Millisecond))

		src, dst := make([]netsim.NodeID, pairs), make([]netsim.NodeID, pairs)
		for i := range src {
			src[i] = g.Hosts[rng.Intn(len(g.Hosts))]
			for dst[i] = src[i]; dst[i] == src[i]; {
				dst[i] = g.Hosts[rng.Intn(len(g.Hosts))]
			}
		}
		hops := 0
		walk := func() {
			for i := range src {
				hops += g.Net.PathHops(src[i], dst[i])
			}
		}
		before := liveHeap()
		t0 = time.Now()
		walk()
		ps.add("netsim.route.cold_us", float64(time.Since(t0))/float64(time.Microsecond)/pairs)
		ps.add("netsim.route.live_bytes_per_pair", (liveHeap()-before)/pairs)

		const rounds = 20
		t0 = time.Now()
		for r := 0; r < rounds; r++ {
			walk()
		}
		ps.add("netsim.route.warm_ns", float64(time.Since(t0))/(rounds*pairs))
		t0 = time.Now()
		for r := 0; r < rounds; r++ {
			for i := range src {
				probeSink += g.Net.AvailBandwidth(src[i], dst[i])
			}
		}
		ps.add("netsim.availbw.warm_ns", float64(time.Since(t0))/(rounds*pairs))
		probeSink += float64(hops)
	}
}

// star builds a one-router network of n hosts on 10 Mbps access links.
func star(n int) (*sim.Kernel, *netsim.Network, []netsim.NodeID) {
	k := sim.NewKernel()
	net := netsim.New(k)
	r := net.AddRouter("r")
	hosts := make([]netsim.NodeID, n)
	for i := range hosts {
		hosts[i] = net.AddHost(fmt.Sprintf("h%d", i))
		net.Connect(hosts[i], r, 10e6, 1e-3)
	}
	return k, net, hosts
}

func probeSolver(seed uint64, ps probeSet) {
	// One background-load change against 100 long-lived flows on a 10-host
	// star (the BENCH_fleet.json reflow fixture, rebuilt here).
	_, net, hosts := star(10)
	for i := 0; i < 100; i++ {
		net.StartTransfer(hosts[i%10], hosts[(i+1)%10], 1e12, "x", nil)
	}
	ps.timeOps("netsim.reflow.ns_per_op", time.Nanosecond, 20_000, func(i int) {
		net.SetBackgroundBoth(0, float64(i%10)*1e5)
	})

	// Short transfers started a millisecond apart and run to completion.
	k, net, hosts := star(10)
	rng := sim.NewRand(seed)
	const flows = 2000
	done := 0
	ps.timeBatches("netsim.transfer.ns_per_flow", time.Nanosecond, flows, func(int) {
		base := k.Now()
		for i := 0; i < flows; i++ {
			a := rng.Intn(len(hosts))
			b := (a + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			k.AtAnon(base+float64(i)*1e-3, func() {
				net.StartTransfer(hosts[a], hosts[b], 4e4, "t", func(*netsim.Flow) { done++ })
			})
		}
		k.RunAll(0)
	})

	k, net, hosts = star(10)
	const sends = 20_000
	ps.timeBatches("netsim.message.ns_per_send", time.Nanosecond, sends, func(int) {
		for i := 0; i < sends; i++ {
			net.SendMessage(hosts[i%10], hosts[(i+3)%10], 2048, netsim.BestEffort, func() { done++ })
		}
		k.RunAll(0)
	})
	probeSink += float64(done)

	// Demand changes on 32 open-loop class flows sharing the star.
	_, net, hosts = star(10)
	classes := make([]*netsim.Flow, 32)
	for i := range classes {
		classes[i] = net.StartClassFlow(hosts[i%10], hosts[(i+1)%10], 2e5, "class")
	}
	ps.timeOps("netsim.classflow.ns_per_update", time.Nanosecond, 20_000, func(i int) {
		classes[i%len(classes)].SetDemand(1e5 + float64(i%17)*2e4)
	})
}

func probeBus(_ uint64, ps probeSet) {
	const topic, subscribers = "probe.response", 8
	k, net, hosts := star(subscribers + 1)
	b := bus.New(k, net)
	sh := b.Acquire()
	delivered := 0
	for i := 0; i < subscribers; i++ {
		sh.Subscribe(hosts[i+1], bus.TopicAndField(topic, "name", "C1"), func(bus.Message) { delivered++ })
	}
	msg := bus.Message{Topic: topic, Src: hosts[0], Name: "C1", Group: "SG1", V1: 0.5}
	const publishes = 2000
	ps.timeBatches("bus.publish.ns_per_delivery", time.Nanosecond, publishes*subscribers, func(int) {
		for i := 0; i < publishes; i++ {
			sh.Publish(msg)
		}
		k.RunAll(0)
	})
	batch := make([]bus.Message, 16)
	for i := range batch {
		batch[i] = msg
	}
	const batches = 200
	ps.timeBatches("bus.publish_batch.ns_per_msg", time.Nanosecond, batches*len(batch), func(int) {
		for i := 0; i < batches; i++ {
			sh.PublishBatch(batch)
		}
		k.RunAll(0)
	})
	if delivered != probeBatches*(publishes+batches*len(batch))*subscribers {
		panic(fmt.Sprintf("bus probe: %d deliveries", delivered))
	}
}

func probeGauges(_ uint64, ps probeSet) {
	k, net, hosts := star(3)
	b := bus.New(k, net)
	probe, report := b.Acquire(), b.Acquire()
	gm := gauges.NewManager(k, net, hosts[0])
	lease, err := gm.Lease("app00", hosts[0])
	if err != nil {
		panic(err)
	}
	// One gauge deployed and torn down again, both handshakes run to the end.
	const cycles = 200
	ps.timeBatches("gauges.lease.create_delete_us", time.Microsecond, cycles, func(int) {
		for i := 0; i < cycles; i++ {
			g := gauges.NewLatencyGauge(k, probe, report, hosts[1], "C1", 30, 5)
			if err := lease.Create(g, nil); err != nil {
				panic(err)
			}
			k.Run(k.Now() + 1)
			if err := lease.Delete(g.Name(), nil); err != nil {
				panic(err)
			}
			k.Run(k.Now() + 1)
		}
	})
}

// model64 is the 64-client, two-group model the model-side probes share,
// with every property the three registered invariants read set in bounds.
func model64() *model.System {
	spec := fleet.AppSpec{Name: "probe", Groups: 2, ServersPerGroup: 2, SparesPerGroup: 1, Clients: 64,
		MaxLatency: 2, MaxServerLoad: 6, MinBandwidth: 10e3}.Spec()
	sys, err := operators.Build(spec)
	if err != nil {
		panic(err)
	}
	for _, c := range sys.ComponentsByType(operators.TClient) {
		c.Props().Set(operators.PropAvgLatency, 1.0)
		_, _, role, err := operators.GroupOf(sys, c)
		if err != nil {
			panic(err)
		}
		role.Props().Set(operators.PropBandwidth, 5e6)
	}
	return sys
}

// The invariants core.Manager registers, in its order.
var managerInvariants = []struct{ name, scope, src string }{
	{operators.InvLatency, operators.TClient, "averageLatency <= maxLatency"},
	{operators.InvLoad, operators.TServerGroup, "load <= maxServerLoad"},
	{operators.InvBandwidth, operators.TClientRole, "bandwidth >= minBandwidth"},
}

func probeModel(_ uint64, ps probeSet) {
	ps.timeOps("constraint.parse_us", time.Microsecond, 3000, func(i int) {
		if _, err := constraint.Parse(managerInvariants[i%len(managerInvariants)].src); err != nil {
			panic(err)
		}
	})
	sys := model64()
	reg := constraint.NewRegistry()
	for _, inv := range managerInvariants {
		reg.Add(constraint.MustInvariant(inv.name, inv.scope, inv.src))
	}
	components := len(sys.Components())
	const checks = 100
	ps.timeBatches("constraint.check.ns_per_component", time.Nanosecond, checks*components, func(int) {
		for i := 0; i < checks; i++ {
			if vs := reg.CheckAll(sys); len(vs) != 0 {
				panic(fmt.Sprintf("constraint probe: %d violations on an in-bounds model", len(vs)))
			}
		}
	})
	var clone *model.System
	ps.timeOps("model.clone_us", time.Microsecond, 100, func(int) { clone = sys.Clone() })
	ps.timeOps("model.equal_us", time.Microsecond, 100, func(int) {
		if !sys.Equal(clone) {
			panic("model probe: clone differs")
		}
	})
}

func probeRepair(_ uint64, ps probeSet) {
	// One latency violation on an overloaded primary group with a spare: the
	// strategy's first tactic commits one addServer. Every call gets a fresh
	// model and engine, built off the clock.
	base := model64()
	base.Component("SG1").Props().Set(operators.PropLoad, 9.0)
	base.Component("C1").Props().Set(operators.PropAvgLatency, 10.0)
	latency := constraint.MustInvariant(managerInvariants[0].name, managerInvariants[0].scope, managerInvariants[0].src)
	query := func(s *model.System, _ *model.Component, _ float64) (*model.Component, float64) {
		return s.Component("SG2"), 5e6
	}
	var compiled *repair.Strategy
	ps.timeOps("script.compile_us", time.Microsecond, 20, func(int) {
		var err error
		if compiled, err = operators.CompileFixLatency(query); err != nil {
			panic(err)
		}
	})
	handle := func(name string, strategy func() *repair.Strategy) {
		const repairs = 100
		var sw stopwatch
		for b := 0; b < probeBatches; b++ {
			for i := 0; i < repairs; i++ {
				sys := base.Clone()
				vs := latency.Check(sys, nil, true)
				if len(vs) != 1 {
					panic(fmt.Sprintf("repair probe: %d violations, want 1", len(vs)))
				}
				eng := repair.NewEngine(sys, repair.TranslatorFunc(func(repair.Op) error { return nil }))
				eng.Bind(operators.InvLatency, strategy())
				sw.start()
				rec := eng.HandleViolation(vs[0], 100)
				sw.stop()
				if rec == nil || rec.Err != nil || len(rec.Ops) != 1 {
					panic(fmt.Sprintf("repair probe: record %+v", rec))
				}
			}
			ps.add(name, sw.per(time.Microsecond, repairs))
		}
	}
	handle("repair.handle_violation_us", func() *repair.Strategy { return operators.FixLatency(query) })
	handle("script.handle_violation_us", func() *repair.Strategy { return compiled })
}

func probeAcme(_ uint64, ps probeSet) {
	sys := model64()
	var src string
	ps.timeOps("acme.print_us", time.Microsecond, 50, func(int) { src = acme.PrintSystem(sys) })
	ps.timeOps("acme.parse_us", time.Microsecond, 50, func(int) {
		if _, err := acme.Parse(src); err != nil {
			panic(err)
		}
	})
}

func probeRemos(_ uint64, ps probeSet) {
	const pairs = 64
	k, net, hosts := star(pairs + 2)
	collector, caller := hosts[pairs], hosts[pairs+1]
	rm := remos.New(k, net, collector)
	srcs, dsts := hosts[:pairs], make([]netsim.NodeID, pairs)
	for i := range dsts {
		dsts[i] = hosts[(i+1)%pairs]
		rm.Prequery(srcs[i], dsts[i])
	}
	k.RunAll(0)
	// One warm query, and one warm 64-pair batch, each with its exchange run
	// to the reply.
	ps.timeOps("remos.getflow.warm_ns", time.Nanosecond, 5000, func(i int) {
		rm.GetFlow(caller, srcs[i%pairs], dsts[i%pairs], func(bw float64) { probeSink += bw })
		k.RunAll(0)
	})
	out := make([]float64, pairs)
	const batches = 200
	ps.timeBatches("remos.batch.ns_per_pair", time.Nanosecond, batches*pairs, func(int) {
		for i := 0; i < batches; i++ {
			rm.GetFlowBatch(caller, srcs, dsts, out, func(bws []float64) { probeSink += bws[0] })
			k.RunAll(0)
		}
	})
}

func probePlacement(seed uint64, ps probeSet) {
	// 128 admissions onto a 257x4 grid sized for exactly that many apps, as
	// StartScenario sizes it: one slot per host.
	const apps = 128
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 257, HostsPerRouter: 4, Seed: seed})
	f, err := fleet.New(k, grid, seed, fleet.Config{Adaptive: true, HostCapacity: 1})
	if err != nil {
		panic(err)
	}
	admit := make([]float64, apps)
	for i := range admit {
		t0 := time.Now()
		if _, err := f.Admit(fleet.AppSpec{Name: fleet.ScenarioAppName(i)}); err != nil {
			panic(err)
		}
		admit[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	asc := sorted(admit)
	ps["fleet.admit.ms_p50"] = admit
	ps.add("fleet.admit.ms_p90", quantile(asc, 0.9))
	ps.add("fleet.admit.growth", mean(admit[apps-16:])/mean(admit[:16]))
	for i := 0; i < apps; i++ {
		t0 := time.Now()
		if err := f.Retire(fleet.ScenarioAppName(i)); err != nil {
			panic(err)
		}
		ps.add("fleet.retire.us", float64(time.Since(t0))/float64(time.Microsecond))
	}
	f.Close()

	// Placement alone, with no bandwidth preference between hosts.
	sch := fleet.NewScheduler(grid, 1, func(_, _ netsim.NodeID) float64 { return 10e6 })
	spec := fleet.AppSpec{Name: "probe", Groups: 2, ServersPerGroup: 2, Clients: 2}.Spec()
	var sw stopwatch
	const places = 50
	for b := 0; b < probeBatches; b++ {
		for i := 0; i < places; i++ {
			sw.start()
			a, err := sch.Place(spec)
			sw.stop()
			if err != nil {
				panic(err)
			}
			sch.Release(a)
		}
		ps.add("fleet.place.us", sw.per(time.Microsecond, places))
	}
}

func probeOpenLoop(seed uint64, ps probeSet) {
	// openloop-surge's envelope at a rate that yields about 50k arrivals.
	p := arrivals.Diurnal{Base: 50, Swing: 0.3, Period: 900,
		Bursts: []arrivals.Burst{{At: 300, Duration: 180, Factor: 8}}}
	peak := arrivals.Peak(p, 900)
	for b := 0; b < probeBatches; b++ {
		rng := sim.NewRand(seed + uint64(b))
		t0 := time.Now()
		xs := arrivals.Sample(p, 900, peak, rng)
		ps.add("arrivals.sample.ns_per_arrival", float64(time.Since(t0))/float64(len(xs)))
	}
	ps.timeOps("queueing.mmm.ns", time.Nanosecond, 100_000, func(i int) {
		probeSink += queueing.MMm{Lambda: 40, Mu: 3, M: 14 + i%8}.MeanResponse()
	})
}
