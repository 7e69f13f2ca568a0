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
// The latency gauge runs on its client's host, where the response probe
// publishes, and the load gauge on the queue host, where the queue probe
// does, so both take each sample as a bus.Folder: inside the publish,
// stamped with the arrival time the delivery would have had, at no kernel
// event. The latency gauge's window keys samples by arrival and a report
// averages only the samples that have arrived; the load gauge holds a sample
// still in flight and folds it into its EWMA at the first tick after its
// arrival. So the reports of both equal those of a gauge that receives each
// sample by delivery. Every report carries the gauge's Slot, which the
// consumer that built the gauge resolved to a model element.
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
	"strings"

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
	name string // KIND:TARGET, TARGET the client or group reported on
	host netsim.NodeID

	k      *sim.Kernel
	probe  *bus.Shard // probe input; nil for a gauge that queries instead
	report *bus.Shard
	period float64

	// Slot is stamped on every report as its bus.Message.Tag: the consumer
	// that built the gauge resolved the report's model target into it.
	Slot int32

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

// target returns the client or group the gauge's reports are about.
func (b *base) target() string { return b.name[strings.IndexByte(b.name, ':')+1:] }

// update records the gauge-update span of one input value v arriving at at
// on sh's tracer, parented on the input's own span (zero for a gauge's own
// query). It returns zero when tracing is off.
func (b *base) update(sh *bus.Shard, at sim.Time, parent obs.SpanID, v float64) obs.SpanID {
	return sh.Tracer().InstantAt(at, obs.KindGaugeUpdate, parent, sh.Label, b.name, v, 0)
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
	b.report.Post(&bus.Message{
		Topic:  TopicReport,
		Src:    b.host,
		Name:   b.name,
		Target: b.target(),
		Kind:   kind,
		Prop:   prop,
		V1:     value,
		Parent: b.lastUpd,
		Tag:    b.Slot,
	})
}

// --- AverageLatency gauge ---

// LatencyGauge maintains a sliding-window average of one client's
// request-response latency and reports it periodically as the
// averageLatency property. It folds each probe sample as a bus.Folder:
// the sample joins the window stamped with its arrival time, and a report
// averages only the samples that have arrived.
type LatencyGauge struct {
	base
	window metrics.Window
	// pendUpd is the gauge-update span of the newest sample while that
	// sample is still in flight (it arrives at pendAt); it becomes lastUpd
	// once the sample has arrived. Zero when tracing is off.
	pendUpd obs.SpanID
	pendAt  sim.Time
}

// NewLatencyGauge creates (but does not start) a latency gauge for client,
// running on host (typically the client's machine), averaging over window
// seconds and reporting every period.
func NewLatencyGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, client string, window, period float64) *LatencyGauge {
	return &LatencyGauge{
		base: base{name: "latency:" + client, host: host,
			k: k, probe: probeBus, report: reportBus, period: period},
		window: metrics.Window{Width: window},
	}
}

func (g *LatencyGauge) start() {
	g.sub = g.probe.SubscribeFold(g.host, bus.TopicAndField(probes.TopicResponse, "client", g.target()), g)
	g.tick(func(now sim.Time) {
		g.arrived(now)
		if avg, ok := g.window.AvgBefore(now); ok {
			g.publish(KindClient, operators.PropAvgLatency, avg)
		}
	})
}

// Fold implements bus.Folder: one latency sample joins the window, counted
// from its arrival time at on.
func (g *LatencyGauge) Fold(at sim.Time, m *bus.Message) {
	if g.probe.Tracer() != nil {
		g.arrived(g.k.Now())
		g.pendUpd, g.pendAt = g.update(g.probe, at, m.Span, m.V1), at
	}
	g.window.Add(at, m.V1)
}

// arrived makes the in-flight sample's update span the one reports parent
// on, once the sample has arrived by now. Of two samples in flight at once
// only the newer is tracked, so a report between their arrivals parents on
// the update before both: an older ancestor, never one from its future.
func (g *LatencyGauge) arrived(now sim.Time) {
	if g.pendUpd != 0 && g.pendAt < now {
		g.lastUpd, g.pendUpd = g.pendUpd, 0
	}
}

func (g *LatencyGauge) stop() {
	g.halt()
	g.window = metrics.Window{Width: g.window.Width}
	g.pendUpd = 0
}

// --- Load gauge ---

// LoadGauge tracks one server group's queue length from probe samples and
// reports it as the load property. It folds each sample as a bus.Folder: a
// sample that has arrived joins the EWMA at once, one still in flight waits
// and joins it at the first tick after its arrival.
type LoadGauge struct {
	base
	// Smooth is the EWMA coefficient in (0,1]; 1 reports raw samples.
	Smooth float64

	value float64
	// inFlight is the earliest sample folded before its arrival (at 0: none).
	// Later ones chain behind it, which a queue probe publishing once a
	// period never makes: a same-host sample flies for only 10 µs.
	inFlight loadSample
	seen     bool
}

// loadSample is one queue sample on its way into a load gauge's EWMA: its
// arrival time, its value, its own span and the sample arriving after it.
type loadSample struct {
	at   sim.Time
	v    float64
	span obs.SpanID
	next *loadSample
}

// NewLoadGauge creates a load gauge for a group, running on host (the queue
// machine).
func NewLoadGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, group string, period float64) *LoadGauge {
	return &LoadGauge{
		base: base{name: "load:" + group, host: host,
			k: k, probe: probeBus, report: reportBus, period: period},
		Smooth: 1.0,
	}
}

func (g *LoadGauge) start() {
	g.sub = g.probe.SubscribeFold(g.host, bus.TopicAndField(probes.TopicQueue, "group", g.target()), g)
	g.tick(func(now sim.Time) {
		g.arrived(now)
		if g.seen {
			g.publish(KindGroup, operators.PropLoad, g.value)
		}
	})
}

// Fold implements bus.Folder: a queue sample that has arrived by now (a
// delivery) joins the EWMA at once; one still in flight waits, behind the
// samples that arrive before it, until arrived folds it.
func (g *LoadGauge) Fold(at sim.Time, m *bus.Message) {
	now := g.k.Now()
	g.arrived(now)
	s := loadSample{at: at, v: m.V1, span: m.Span}
	switch {
	case at <= now:
		g.fold(s)
	case g.inFlight.at == 0:
		g.inFlight = s
	default:
		last := &g.inFlight
		for last.next != nil {
			last = last.next
		}
		last.next = &loadSample{at: at, v: m.V1, span: m.Span}
	}
}

// arrived folds, in arrival order, the samples in flight that arrived
// before now. A sample arriving exactly at a tick waits for the next one:
// on the event path its delivery was scheduled after the tick was.
func (g *LoadGauge) arrived(now sim.Time) {
	for g.inFlight.at != 0 && g.inFlight.at < now {
		s := g.inFlight
		g.fold(s)
		g.inFlight = loadSample{}
		if s.next != nil {
			g.inFlight = *s.next
		}
	}
}

// fold folds one arrived queue sample into the EWMA; the first sample seeds
// it. Its update span, recorded at its arrival, is the one reports parent on.
func (g *LoadGauge) fold(s loadSample) {
	g.lastUpd = g.update(g.probe, s.at, s.span, s.v)
	if !g.seen || g.Smooth >= 1 {
		g.value = s.v
		g.seen = true
		return
	}
	g.value = float64(g.Smooth*s.v) + float64((1-g.Smooth)*g.value)
}

// stop folds the samples that have arrived and drops those still in flight,
// which the gauge, unsubscribed, would never have received; the EWMA itself
// survives, for a cached gauge's restart.
func (g *LoadGauge) stop() {
	g.arrived(g.k.Now())
	g.inFlight = loadSample{}
	g.halt()
}

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
		base: base{name: "bandwidth:" + client, host: host,
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
			if now-g.sentAt < remos.ColdDelay+float64(4*g.period) {
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
	g.lastUpd = g.update(g.report, g.k.Now(), 0, bw)
	g.publish(KindClientRole, operators.PropBandwidth, bw)
}

func (g *BandwidthGauge) stop() {
	g.stopped = true
	g.halt()
}

var _ Gauge = (*LatencyGauge)(nil)
var _ Gauge = (*LoadGauge)(nil)
var _ Gauge = (*BandwidthGauge)(nil)
