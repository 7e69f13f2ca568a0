package core

import (
	"fmt"
	"slices"
	"sort"

	"archadapt/internal/app"
	"archadapt/internal/bus"
	"archadapt/internal/constraint"
	"archadapt/internal/envmgr"
	"archadapt/internal/gauges"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/probes"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// RepairSpan is one completed repair with its wall-clock extent, the
// intervals drawn atop Figures 11–13. Duration covers strategy execution,
// operator propagation and gauge churn.
type RepairSpan struct {
	Start, End float64
	Strategy   string
	Subject    string
	Tactics    []string
	Ops        []repair.Op
}

// Duration returns End-Start.
func (r RepairSpan) Duration() float64 { return r.End - r.Start }

// Manager is the architecture manager: the model layer of the framework.
type Manager struct {
	Cfg  Config
	K    *sim.Kernel
	Net  *netsim.Network
	App  *app.System
	Env  *envmgr.Manager
	Rm   *remos.Service
	Host netsim.NodeID

	Model    *model.System
	Registry *constraint.Registry
	Engine   *repair.Engine

	// ProbeBus and ReportBus are this application's routing domains on the
	// monitoring plane; GaugeMgr is its lease on the gauge manager. In the
	// fleet configuration all three are views onto fleet-shared
	// infrastructure; in the per-application reference configuration they
	// are backed by private, single-tenant instances.
	ProbeBus  *bus.Shard
	ReportBus *bus.Shard
	GaugeMgr  *gauges.Lease

	queueProbe  *probes.QueueProbe
	stopCheck   func()
	probeDetach []func()
	reportSub   *bus.Subscription

	// targets holds the property list each gauge report slot writes, slot
	// s at index s-1 (reportSlot): for the i-th client, slot 2i+1 is its
	// latency gauge's (the client's) and 2i+2 its bandwidth gauge's (the
	// client role's); for the j-th group, slot 2·clients+j+1 is its load
	// gauge's (the group's). nil marks an element the model lacks. It is
	// resolved at the first report, at targetsRev, the model's structure
	// revision, and again whenever that moves: a MoveClient repair moves a
	// role, an aborted repair's restore moves it back.
	targets    []*model.Props
	targetsRev uint64

	// tr/trState attach the control loop to the observability plane; both
	// nil (and every hook a single nil check) when tracing is off.
	tr      *obs.Tracer
	trState *traceState

	busy        bool
	spans       []RepairSpan
	alerts      alertLog
	reports     uint64
	checks      uint64
	violationsN uint64
}

// Plane bundles the monitoring endpoints a Manager attaches to: the
// application's probe and report shards and its gauge lease. The fleet
// builds planes from its shared bus and gauge-manager infrastructure; a
// zero Plane makes the manager build private single-tenant infrastructure
// (the per-application reference configuration).
type Plane struct {
	Probe  *bus.Shard
	Report *bus.Shard
	Gauges *gauges.Lease
}

// NewMonitoring builds a monitoring plane configured from cfg: a probe bus
// and a gauge-report bus carrying cfg.MonitoringPriority, and a gauge
// manager anchored at host with cfg's priority and cfg.GaugeCaching. The
// fleet builds its shared plane through it, and NewAttached a private one.
func NewMonitoring(cfg Config, k *sim.Kernel, net *netsim.Network, host netsim.NodeID) (probeBus, reportBus *bus.Bus, gm *gauges.Manager) {
	probeBus, reportBus = bus.New(k, net), bus.New(k, net)
	probeBus.Priority, reportBus.Priority = cfg.MonitoringPriority, cfg.MonitoringPriority
	gm = gauges.NewManager(k, net, host)
	gm.Caching, gm.Priority = cfg.GaugeCaching, cfg.MonitoringPriority
	return probeBus, reportBus, gm
}

// New wires a manager over an already-built model and application, with
// private monitoring infrastructure. Hosts: the manager (and gauge manager)
// run on host — in the paper's testbed, the machine running Server 4.
func New(cfg Config, k *sim.Kernel, net *netsim.Network, a *app.System, mdl *model.System, host netsim.NodeID, rm *remos.Service) *Manager {
	return NewAttached(cfg, k, net, a, mdl, host, rm, Plane{})
}

// NewAttached wires a manager onto an existing monitoring plane — the fleet
// configuration, where one sharded bus and one gauge manager serve every
// application. A zero plane falls back to private per-application
// infrastructure configured from cfg (buses and gauge manager of its own),
// which is the reference oracle the fleet equivalence tests compare
// against.
func NewAttached(cfg Config, k *sim.Kernel, net *netsim.Network, a *app.System, mdl *model.System, host netsim.NodeID, rm *remos.Service, plane Plane) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		Cfg: cfg, K: k, Net: net, App: a, Model: mdl, Host: host, Rm: rm,
	}
	if plane.Probe == nil {
		probeBus, reportBus, gm := NewMonitoring(cfg, k, net, host)
		plane = Plane{Probe: probeBus.Default(), Report: reportBus.Default(), Gauges: gm.DefaultLease()}
	}
	m.ProbeBus = plane.Probe
	m.ReportBus = plane.Report
	m.GaugeMgr = plane.Gauges

	m.Env = envmgr.New(k, net, a, host, rm)

	m.Registry = constraint.NewRegistry()
	// Invariant: MustInvariant panics only on a source that does not parse,
	// and these are constants the core tests parse on every run.
	m.Registry.Add(constraint.MustInvariant(operators.InvLatency, operators.TClient,
		"averageLatency <= maxLatency"))
	m.Registry.Add(constraint.MustInvariant(operators.InvLoad, operators.TServerGroup,
		"load <= maxServerLoad"))
	m.Registry.Add(constraint.MustInvariant(operators.InvBandwidth, operators.TClientRole,
		"bandwidth >= minBandwidth"))

	m.Engine = repair.NewEngine(mdl, m.Env)
	m.Engine.SettleTime = cfg.SettleTime
	m.Engine.OscillationWindow = cfg.OscillationWindow
	m.Engine.OscillationMoves = cfg.OscillationMoves
	m.Engine.DampFactor = cfg.DampFactor
	m.Engine.AlertFn = func(v constraint.Violation) {
		m.alerts.add(k.Now(), m.Model, v)
		if m.tr != nil {
			m.tr.Instant(obs.KindAlert, m.trState.violSpan[v.SubjectName()], m.trState.app,
				v.SubjectName()+": "+repair.AlertReason, 0, 0)
		}
	}
	m.Engine.Bind(operators.InvLatency, operators.FixLatency(m.FindGoodSGrp))
	if cfg.ScaleDown {
		if !mdl.Props().Has(operators.PropMinServerLoad) {
			mdl.Props().Set(operators.PropMinServerLoad, 1.0)
		}
		if !mdl.Props().Has(operators.PropMinReplicas) {
			mdl.Props().Set(operators.PropMinReplicas, 1.0)
		}
		// Invariant: a constant source, as above.
		m.Registry.Add(constraint.MustInvariant(operators.InvUtilization, operators.TServerGroup,
			"load >= minServerLoad or replicationCount <= minReplicas"))
		shrink, err := operators.CompileShrink()
		if err != nil {
			// Invariant: the shrink strategy is bound from the constant
			// script the operators package compiles once per process, which
			// its tests bind; only an edit that renames it gets here.
			panic("core: " + err.Error())
		}
		m.Engine.Bind(operators.InvUtilization, shrink)
	}
	if cfg.Tracer != nil {
		m.traceInit(m.GaugeMgr.App())
	}
	return m
}

// Spans returns completed repair spans.
func (m *Manager) Spans() []RepairSpan { return m.spans }

// Alerts returns the human-escalation events in order, built on each call.
func (m *Manager) Alerts() []Alert { return m.alerts.list(m.Model) }

// AlertCount returns the number of human-escalation events.
func (m *Manager) AlertCount() int { return m.alerts.n }

// Reports returns the number of gauge reports consumed.
func (m *Manager) Reports() uint64 { return m.reports }

// Checks returns the number of control-loop ticks.
func (m *Manager) Checks() uint64 { return m.checks }

// ViolationsSeen returns the cumulative violation count across checks.
func (m *Manager) ViolationsSeen() uint64 { return m.violationsN }

// groupServerHost returns the host of a group's first active server.
func (m *Manager) groupServerHost(group string) (netsim.NodeID, bool) {
	srv, _ := m.App.ActiveServers(group)
	if srv == nil {
		return 0, false
	}
	return srv.Host, true
}

// FindGoodSGrp is the runtime query of §3.3: the server group with the best
// predicted bandwidth to the client above minBW. Predictions come from the
// Remos substitute's warm cache; cold pairs are invisible (the paper's
// motivation for pre-querying).
func (m *Manager) FindGoodSGrp(sys *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
	c := m.App.Client(cli.Name())
	if c == nil {
		return nil, 0
	}
	var best *model.Component
	bestBW := minBW
	for _, grp := range sys.ComponentsByType(operators.TServerGroup) {
		host, ok := m.groupServerHost(grp.Name())
		if !ok {
			continue
		}
		bw, ok := m.Rm.Predict(host, c.Host)
		if !ok {
			continue
		}
		if bw >= bestBW {
			best, bestBW = grp, bw
		}
	}
	if best == nil {
		return nil, 0
	}
	return best, bestBW
}

// Deploy installs probes and gauges and starts the control loop. It mirrors
// the paper's run protocol: monitoring needs its quiescent warm-up before
// constraints begin to see fresh properties.
func (m *Manager) Deploy() {
	// Probes.
	for _, name := range m.App.Clients() {
		m.probeDetach = append(m.probeDetach, probes.AttachResponseProbe(m.ProbeBus, m.App.Client(name)))
	}
	m.queueProbe = probes.StartQueueProbe(m.K, m.ProbeBus, m.App, gaugePeriod)

	// Remos pre-querying (paper §5.3 mitigation).
	if !m.Cfg.SkipRemosPrequery {
		var cliHosts, srvHosts []netsim.NodeID
		for _, name := range m.App.Clients() {
			cliHosts = append(cliHosts, m.App.Client(name).Host)
		}
		for _, name := range m.App.Servers() {
			srvHosts = append(srvHosts, m.App.Server(name).Host)
		}
		m.Rm.PrequeryAll(srvHosts, cliHosts)
	}

	// Gauges.
	for _, name := range m.App.Clients() {
		_ = m.GaugeMgr.Create(m.newGauge("latency:", name), nil)
		_ = m.GaugeMgr.Create(m.newGauge("bandwidth:", name), nil)
	}
	for _, g := range m.App.Groups() {
		_ = m.GaugeMgr.Create(m.newGauge("load:", g), nil)
	}

	// Gauge consumer: reports update the model.
	m.reportSub = m.ReportBus.Subscribe(m.Host, bus.TopicIs(gauges.TopicReport), m.consumeReport)

	// Control loop.
	m.stopCheck = m.K.Ticker(m.K.Now()+checkPeriod, checkPeriod, func(now sim.Time) {
		m.check(now)
	})
}

// Stop halts the control loop and probes.
func (m *Manager) Stop() {
	if m.stopCheck != nil {
		m.stopCheck()
	}
	if m.queueProbe != nil {
		m.queueProbe.Stop()
	}
}

// Shutdown is Stop plus a full detach from the monitoring plane: response
// probes are silenced, the report subscription removed, and the gauge lease
// closed (every gauge stops measuring now; teardown handshakes drain in the
// background). The fleet calls this when retiring an application in the
// shared-plane configuration, so the application's shards can be released
// and reused with nothing left attached.
func (m *Manager) Shutdown() {
	m.Stop()
	for _, detach := range m.probeDetach {
		detach()
	}
	m.probeDetach = nil
	if m.reportSub != nil {
		m.ReportBus.Unsubscribe(m.reportSub)
		m.reportSub = nil
	}
	m.GaugeMgr.Close(nil)
}

// Reattach moves a shut-down manager to a new host and monitoring plane and
// redeploys its instrumentation — the re-place step of a fleet migration.
// The caller must have called Shutdown first (probes detached, report
// subscription removed, gauge lease closed) and re-pointed the application's
// processes at their new hosts; Reattach then re-anchors the environment
// manager's operator RPCs at the new host, installs fresh probes and gauges
// through the new plane, and restarts the control loop. Repair history,
// alerts and counters survive, so summaries aggregate across the move.
func (m *Manager) Reattach(host netsim.NodeID, plane Plane) {
	m.Host = host
	m.ProbeBus = plane.Probe
	m.ReportBus = plane.Report
	m.GaugeMgr = plane.Gauges
	m.Env.Host = host
	// A repair whose gauge churn straddled the move finds its gauges already
	// torn down; the manager must not stay wedged on it.
	m.busy = false
	m.Deploy()
}

// newGauge builds the gauge named kind+target: kind "latency:" or
// "bandwidth:" on a client, "load:" on a group. Deploy and churnGauges both
// build through it; a client's host and group are read when its gauge is
// built, and the gauge stamps its reports with its slot in targets.
func (m *Manager) newGauge(kind, target string) gauges.Gauge {
	slot := m.reportSlot(kind, target)
	if kind == "load:" {
		lg := gauges.NewLoadGauge(m.K, m.ProbeBus, m.ReportBus, m.App.QueueHost, target, gaugePeriod)
		lg.Smooth = m.Cfg.LoadSmoothing
		lg.Slot = slot
		return lg
	}
	cli := m.App.Client(target)
	if kind == "latency:" {
		lg := gauges.NewLatencyGauge(m.K, m.ProbeBus, m.ReportBus, cli.Host, target,
			latencyWindow, gaugePeriod)
		lg.Slot = slot
		return lg
	}
	bg := gauges.NewBandwidthGauge(m.K, m.ReportBus, m.Rm, cli.Host, target,
		func() (netsim.NodeID, bool) { return m.groupServerHost(cli.Group) },
		gaugePeriod)
	bg.Slot = slot
	return bg
}

// reportSlot returns the slot in targets of the gauge kind+target, 0 for a
// target the application does not name.
func (m *Manager) reportSlot(kind, target string) int32 {
	clients := m.App.Clients()
	if kind == "load:" {
		if j := slices.Index(m.App.Groups(), target); j >= 0 {
			return int32(2*len(clients) + j + 1)
		}
		return 0
	}
	i := slices.Index(clients, target)
	switch {
	case i < 0:
		return 0
	case kind == "latency:":
		return int32(2*i + 1)
	}
	return int32(2*i + 2)
}

// resolveTargets brings targets up to date with the model's structure and
// the application's clients and groups.
func (m *Manager) resolveTargets() {
	rev, clients, groups := m.Model.StructRev(), m.App.Clients(), m.App.Groups()
	n := 2*len(clients) + len(groups)
	if m.targets != nil && rev == m.targetsRev && len(m.targets) == n {
		return
	}
	if cap(m.targets) < n {
		m.targets = make([]*model.Props, 0, n)
	}
	m.targets, m.targetsRev = m.targets[:0], rev
	if m.trState != nil {
		m.trState.subjects = m.trState.subjects[:0]
	}
	for _, name := range clients {
		var cli, role model.Element
		if c := m.Model.Component(name); c != nil {
			cli = c
			if _, _, r, err := operators.GroupOf(m.Model, c); err == nil {
				role = r
			}
		}
		m.addTarget(cli)
		m.addTarget(role)
	}
	for _, name := range groups {
		var grp model.Element
		if c := m.Model.Component(name); c != nil {
			grp = c
		}
		m.addTarget(grp)
	}
}

// addTarget appends the next slot's target: el's property list, nil for no
// element, and under tracing el's name as the slot's trace subject.
func (m *Manager) addTarget(el model.Element) {
	var props *model.Props
	subject := ""
	if el != nil {
		props, subject = el.Props(), el.Name()
	}
	m.targets = append(m.targets, props)
	if m.trState != nil {
		m.trState.subjects = append(m.trState.subjects, subject)
	}
}

// consumeReport applies one gauge report to the model (Figure 4's
// "gauge consumers ... update an abstraction/model"): the property the
// report names, on the element its slot resolved to. A bandwidth report's
// element is the client's role, so its update is traced under the role's
// name, as bandwidth violations are.
func (m *Manager) consumeReport(msg bus.Message) {
	m.reports++
	m.resolveTargets()
	i := int(msg.Tag) - 1
	if i < 0 || i >= len(m.targets) || m.targets[i] == nil {
		return
	}
	m.targets[i].SetFloat(msg.Prop, msg.V1)
	if m.tr != nil {
		m.traceModelUpdate(msg, m.trState.subjects[i])
	}
}

// check is one control-loop tick: evaluate all invariants, pick violations,
// drive the engine, then run the repair's gauge churn.
func (m *Manager) check(now float64) {
	m.checks++
	if m.busy {
		return // a repair (including its gauge churn) is still in progress
	}
	vs := m.Registry.CheckAll(m.Model)
	m.violationsN += uint64(len(vs))
	if m.tr != nil {
		m.traceCheck(vs, now)
	}
	if len(vs) == 0 || m.Cfg.DisableRepairs {
		return
	}
	if m.Cfg.SmartSelection {
		sort.SliceStable(vs, func(i, j int) bool { return severity(vs[i]) > severity(vs[j]) })
	}
	committed := m.Engine.HandleAll(vs, now)
	if committed == nil || len(committed.Ops) == 0 {
		return
	}
	rec := *committed // the engine rewrites its record on its next attempt
	m.busy = true
	span := RepairSpan{
		Start:    now,
		Strategy: rec.Strategy,
		Subject:  rec.Subject,
		Tactics:  rec.Applied,
		Ops:      rec.Ops,
	}
	var repairSpan obs.SpanID
	if m.tr != nil {
		repairSpan = m.traceRepairBegin(&rec, now)
	}
	m.churnGauges(rec.Ops, func() {
		span.End = m.K.Now()
		m.spans = append(m.spans, span)
		m.busy = false
		if m.tr != nil {
			m.traceRepairDone(&rec, repairSpan)
		}
	})
}

// severity orders violations for SmartSelection: worst latency overrun
// first, then worst load, then worst bandwidth deficit.
func severity(v constraint.Violation) float64 {
	if v.Subject == nil {
		return 0
	}
	switch v.Invariant.Name {
	case operators.InvLatency:
		return 1e6 + v.Subject.Props().FloatOr(operators.PropAvgLatency, 0)
	case operators.InvLoad:
		return 1e3 + v.Subject.Props().FloatOr(operators.PropLoad, 0)
	default:
		return -v.Subject.Props().FloatOr(operators.PropBandwidth, 0)
	}
}

// churnGauges performs the post-repair gauge maintenance: the gauges
// observing the elements a repair touched must be torn down and recreated
// (or re-targeted, with caching). This is the cost that made the paper's
// repairs average 30 seconds. done fires when all affected gauges are live
// again.
func (m *Manager) churnGauges(ops []repair.Op, done func()) {
	type churnItem struct{ old, kind, target string }
	var items []churnItem
	seen := map[string]bool{}
	add := func(kind, target string) {
		old := kind + target
		if seen[old] {
			return
		}
		seen[old] = true
		items = append(items, churnItem{old, kind, target})
	}
	for _, op := range ops {
		switch op.Kind {
		case repair.OpMoveClient:
			if m.App.Client(op.Client) == nil {
				continue
			}
			add("latency:", op.Client)
			add("bandwidth:", op.Client)
		case repair.OpAddServer, repair.OpRemoveServer:
			add("load:", op.Group)
		}
	}
	if len(items) == 0 {
		m.K.At(m.K.Now(), done)
		return
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(items) {
			done()
			return
		}
		it := items[i]
		if err := m.GaugeMgr.Recreate(it.old, m.newGauge(it.kind, it.target), func() { step(i + 1) }); err != nil {
			// Gauge missing (already churned): skip.
			step(i + 1)
		}
	}
	step(0)
}

// String summarizes manager state for logs.
func (m *Manager) String() string {
	return fmt.Sprintf("core.Manager{checks=%d reports=%d repairs=%d alerts=%d}",
		m.checks, m.reports, len(m.spans), m.AlertCount())
}
