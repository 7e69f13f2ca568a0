// Package gauges implements the middle level of the Figure 4 monitoring
// stack: gauges consume probe observations, interpret them as architectural
// properties, and disseminate reports on the gauge reporting bus.
//
// Three gauge types cover the paper's example: AverageLatency (per client),
// Load (queue length per server group) and Bandwidth (per client↔group
// connection, via the Remos substitute). They share one embedded core —
// identity, report shard, reporting ticker, teardown and the report itself
// — and each adds only its measurement: the latency gauge feeds a
// metrics.Window (the same sliding window the harness's ground truth
// uses), the load gauge an EWMA, the bandwidth gauge a Remos query.
//
// The gauge *protocol* — creation, communication, deletion — is modeled with
// explicit per-message costs, because the paper measured that repair time
// ("averages 30 seconds") was dominated by "communicating to create and
// delete gauges", and proposed caching/relocating gauges as the fix. Manager
// implements both the destroy/recreate protocol and the caching extension.
//
// One Manager serves a whole fleet: applications attach through Leases that
// scope gauge names and anchor protocol exchanges at the leasing app's
// manager host, and gauges read probe observations from (and report onto)
// their application's bus.Shard. Lease.Close tears down an application's
// remaining gauges in one batched lifecycle pass at retirement, so a shared
// manager never leaks a retired tenant's gauges (asserted via
// Manager.Counts and Deployed).
package gauges

import (
	"archadapt/internal/bus"
	"archadapt/internal/metrics"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/probes"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
)

// TopicReport is the gauge-reporting-bus topic. Slots: Name=gauge,
// Target (client or group name), Kind (one of the report kinds below),
// Prop and V1=value.
const TopicReport = "gauge.report"

// Report kinds: which model element a report's property belongs to.
const (
	// KindClient reports a client's own property (averageLatency).
	KindClient = "client"
	// KindGroup reports a server group's property (load).
	KindGroup = "group"
	// KindClientRole reports a property of the role connecting the Target
	// client to its group (bandwidth).
	KindClientRole = "clientRole"
)

// Gauge is a deployed gauge instance.
type Gauge interface {
	// Name identifies the gauge (unique per manager).
	Name() string
	// Host is where the gauge executes.
	Host() netsim.NodeID
	// start/stop bracket the measurement activity; called by the Manager
	// once the lifecycle protocol completes.
	start()
	stop()
}

// base is the plumbing every gauge shares: its identity, the kernel, its
// input and report shards, its reporting ticker and the report itself.
// Each gauge embeds one and adds only its own measurement.
type base struct {
	name   string
	host   netsim.NodeID
	target string // the client or group the reports are about

	k      *sim.Kernel
	probe  *bus.Shard // probe input; nil for a gauge that queries instead
	report *bus.Shard
	period float64

	sub      *bus.Subscription
	stopTick func()
	// lastUpd is the gauge-update span of the newest input value; the next
	// report parents on it (zero when tracing is off).
	lastUpd obs.SpanID
}

// Name implements Gauge.
func (b *base) Name() string { return b.name }

// Host implements Gauge.
func (b *base) Host() netsim.NodeID { return b.host }

// listen feeds the probe samples f selects into g's fold, recording each
// sample's gauge-update span first.
func (b *base) listen(f bus.Filter, g interface{ fold(v float64) }) {
	b.sub = b.probe.Subscribe(b.host, f, func(m bus.Message) {
		b.updated(b.probe, m.Span, m.V1)
		g.fold(m.V1)
	})
}

// updated records one input value's gauge-update span on sh's tracer,
// parented on the input's own span (zero for a gauge's own query).
func (b *base) updated(sh *bus.Shard, parent obs.SpanID, v float64) {
	if tr := sh.Tracer(); tr != nil {
		b.lastUpd = tr.Instant(obs.KindGaugeUpdate, parent, sh.Label, b.name, v, 0)
	}
}

// tick starts the reporting ticker: fn runs every period from one period
// on.
func (b *base) tick(fn func(now sim.Time)) {
	b.stopTick = b.k.Ticker(b.k.Now()+b.period, b.period, fn)
}

// halt drops the probe subscription and stops the ticker.
func (b *base) halt() {
	if b.sub != nil {
		b.probe.Unsubscribe(b.sub)
		b.sub = nil
	}
	if b.stopTick != nil {
		b.stopTick()
		b.stopTick = nil
	}
}

// publish sends one report of the target's prop, of the given kind, on the
// app's reporting shard, parented on the last gauge update.
func (b *base) publish(kind, prop string, value float64) {
	b.report.Publish(bus.Message{
		Topic:  TopicReport,
		Src:    b.host,
		Name:   b.name,
		Target: b.target,
		Kind:   kind,
		Prop:   prop,
		V1:     value,
		Parent: b.lastUpd,
	})
}

// --- AverageLatency gauge ---

// LatencyGauge maintains a sliding-window average of one client's
// request-response latency and reports it periodically as the
// averageLatency property.
type LatencyGauge struct {
	base
	window metrics.Window
}

// NewLatencyGauge creates (but does not start) a latency gauge for client,
// running on host (typically the client's machine), averaging over window
// seconds and reporting every period.
func NewLatencyGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, client string, window, period float64) *LatencyGauge {
	return &LatencyGauge{
		base: base{name: "latency:" + client, host: host, target: client,
			k: k, probe: probeBus, report: reportBus, period: period},
		window: metrics.Window{Width: window},
	}
}

func (g *LatencyGauge) start() {
	g.listen(bus.TopicAndField(probes.TopicResponse, "client", g.target), g)
	g.tick(func(now sim.Time) {
		if avg, ok := g.window.Avg(now); ok {
			g.publish(KindClient, operators.PropAvgLatency, avg)
		}
	})
}

// fold adds one latency sample to the window.
func (g *LatencyGauge) fold(v float64) { g.window.Add(g.k.Now(), v) }

func (g *LatencyGauge) stop() {
	g.halt()
	g.window = metrics.Window{Width: g.window.Width}
}

// --- Load gauge ---

// LoadGauge tracks one server group's queue length from probe samples and
// reports it as the load property.
type LoadGauge struct {
	base
	// Smooth is the EWMA coefficient in (0,1]; 1 reports raw samples.
	Smooth float64

	value float64
	seen  bool
}

// NewLoadGauge creates a load gauge for a group, running on host (the queue
// machine).
func NewLoadGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, group string, period float64) *LoadGauge {
	return &LoadGauge{
		base: base{name: "load:" + group, host: host, target: group,
			k: k, probe: probeBus, report: reportBus, period: period},
		Smooth: 1.0,
	}
}

// Value returns the current (smoothed) load.
func (g *LoadGauge) Value() float64 { return g.value }

func (g *LoadGauge) start() {
	g.listen(bus.TopicAndField(probes.TopicQueue, "group", g.target), g)
	g.tick(func(sim.Time) {
		if g.seen {
			g.publish(KindGroup, operators.PropLoad, g.value)
		}
	})
}

// fold folds one queue sample into the EWMA; the first sample seeds it.
func (g *LoadGauge) fold(v float64) {
	if !g.seen || g.Smooth >= 1 {
		g.value = v
		g.seen = true
		return
	}
	g.value = g.Smooth*v + (1-g.Smooth)*g.value
}

func (g *LoadGauge) stop() { g.halt() }

// --- Bandwidth gauge ---

// BandwidthGauge periodically queries Remos for the available bandwidth
// between its client's host and the client's server group and reports it as
// the client role's bandwidth property. Re-targeting after a move repair
// goes through the Manager (destroy/recreate, or Retarget under caching).
type BandwidthGauge struct {
	base
	rm *remos.Service
	// serverHost yields the measurement endpoint for the client's current
	// group (the first active server's machine).
	serverHost func() (netsim.NodeID, bool)

	stopped  bool
	inFlight bool
	sentAt   sim.Time
	// seq numbers the gauge's queries; a reply tagged with an older one was
	// superseded by a retry.
	seq  uint64
	last float64
	seen bool
}

// NewBandwidthGauge creates a bandwidth gauge for client, running on host
// (the client's machine, which is also the measured path's client end).
func NewBandwidthGauge(k *sim.Kernel, reportBus *bus.Shard, rm *remos.Service, host netsim.NodeID, client string, serverHost func() (netsim.NodeID, bool), period float64) *BandwidthGauge {
	return &BandwidthGauge{
		base: base{name: "bandwidth:" + client, host: host, target: client,
			k: k, report: reportBus, period: period},
		rm: rm, serverHost: serverHost,
	}
}

// Last returns the last reported value.
func (g *BandwidthGauge) Last() (float64, bool) { return g.last, g.seen }

func (g *BandwidthGauge) start() {
	g.stopped = false
	g.tick(func(now sim.Time) {
		if g.inFlight {
			// A lost query or reply must not wedge the gauge: give a cold
			// collection ample time, then retry.
			if now-g.sentAt < remos.ColdDelay+4*g.period {
				return
			}
			g.inFlight = false
		}
		sh, ok := g.serverHost()
		if !ok {
			return
		}
		g.inFlight = true
		g.sentAt = now
		g.seq++
		g.rm.GetFlowArg(g.host, sh, g.host, bandwidthReplyFn, g, g.seq)
	})
}

// bandwidthReplyFn lands a Remos reply on the gauge that asked (arg), for
// its query number tag.
func bandwidthReplyFn(arg any, tag uint64, bw float64) {
	g := arg.(*BandwidthGauge)
	if g.stopped {
		// The gauge was torn down while the query was in flight (e.g. its
		// app retired): the report shard may already be leased to another
		// tenant, so the late reply must not publish.
		return
	}
	if tag != g.seq {
		return // a retry superseded this query
	}
	g.inFlight = false
	g.last, g.seen = bw, true
	// The bandwidth gauge's input is a Remos query, not a probe message, so
	// its update span is a root (no probe parent).
	g.updated(g.report, 0, bw)
	g.publish(KindClientRole, operators.PropBandwidth, bw)
}

func (g *BandwidthGauge) stop() {
	g.stopped = true
	g.halt()
}

var _ Gauge = (*LatencyGauge)(nil)
var _ Gauge = (*LoadGauge)(nil)
var _ Gauge = (*BandwidthGauge)(nil)
