// Package gauges implements the middle level of the Figure 4 monitoring
// stack: gauges consume probe observations, interpret them as architectural
// properties, and disseminate reports on the gauge reporting bus.
//
// Three gauge types cover the paper's example: AverageLatency (per client),
// Load (queue length per server group) and Bandwidth (per client↔group
// connection, via the Remos substitute).
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

// report publishes one gauge report on the app's reporting shard. parent is
// the causal predecessor span (the gauge update that last fed the value);
// zero when tracing is off.
func report(sh *bus.Shard, src netsim.NodeID, gauge, target, kind, prop string, value float64, parent obs.SpanID) {
	sh.Publish(bus.Message{
		Topic:  TopicReport,
		Src:    src,
		Name:   gauge,
		Target: target,
		Kind:   kind,
		Prop:   prop,
		V1:     value,
		Parent: parent,
	})
}

// --- AverageLatency gauge ---

// LatencyGauge maintains a sliding-window average of one client's
// request-response latency and reports it periodically as the
// averageLatency property.
type LatencyGauge struct {
	name   string
	host   netsim.NodeID
	client string

	K      *sim.Kernel
	Probe  *bus.Shard // probe shard (input)
	Report *bus.Shard // gauge reporting shard (output)

	// Window is the sliding-window width in seconds; Period the reporting
	// interval.
	Window float64
	Period float64

	sub      *bus.Subscription
	stopTick func()
	samples  []latSample
	// lastUpd is the gauge-update span of the newest folded probe sample;
	// the next report parents on it (zero when tracing is off).
	lastUpd obs.SpanID
}

type latSample struct {
	t   sim.Time
	lat float64
}

// NewLatencyGauge creates (but does not start) a latency gauge for client,
// running on host (typically the client's machine).
func NewLatencyGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, client string, window, period float64) *LatencyGauge {
	return &LatencyGauge{
		name: "latency:" + client, host: host, client: client,
		K: k, Probe: probeBus, Report: reportBus,
		Window: window, Period: period,
	}
}

// Name implements Gauge.
func (g *LatencyGauge) Name() string { return g.name }

// Host implements Gauge.
func (g *LatencyGauge) Host() netsim.NodeID { return g.host }

// Average returns the current windowed average (0 when no samples).
func (g *LatencyGauge) Average() float64 {
	if len(g.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range g.samples {
		sum += s.lat
	}
	return sum / float64(len(g.samples))
}

func (g *LatencyGauge) start() {
	g.sub = g.Probe.Subscribe(g.host,
		bus.TopicAndField(probes.TopicResponse, "client", g.client),
		func(m bus.Message) {
			if tr := g.Probe.Tracer(); tr != nil {
				g.lastUpd = tr.Instant(obs.KindGaugeUpdate, m.Span, g.Probe.Label, g.name, m.V1, 0)
			}
			g.samples = append(g.samples, latSample{t: g.K.Now(), lat: m.V1})
		})
	g.stopTick = g.K.Ticker(g.K.Now()+g.Period, g.Period, func(now sim.Time) {
		cutoff := now - g.Window
		kept := g.samples[:0]
		for _, s := range g.samples {
			if s.t >= cutoff {
				kept = append(kept, s)
			}
		}
		g.samples = kept
		if len(g.samples) == 0 {
			return
		}
		report(g.Report, g.host, g.name, g.client, KindClient, operators.PropAvgLatency, g.Average(), g.lastUpd)
	})
}

func (g *LatencyGauge) stop() {
	if g.sub != nil {
		g.Probe.Unsubscribe(g.sub)
		g.sub = nil
	}
	if g.stopTick != nil {
		g.stopTick()
		g.stopTick = nil
	}
	g.samples = nil
}

// --- Load gauge ---

// LoadGauge tracks one server group's queue length from probe samples and
// reports it as the load property.
type LoadGauge struct {
	name  string
	host  netsim.NodeID
	group string

	K      *sim.Kernel
	Probe  *bus.Shard
	Report *bus.Shard
	Period float64
	// Smooth is the EWMA coefficient in (0,1]; 1 reports raw samples.
	Smooth float64

	sub      *bus.Subscription
	stopTick func()
	value    float64
	seen     bool
	lastUpd  obs.SpanID
}

// NewLoadGauge creates a load gauge for a group, running on host (the queue
// machine).
func NewLoadGauge(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, group string, period float64) *LoadGauge {
	return &LoadGauge{
		name: "load:" + group, host: host, group: group,
		K: k, Probe: probeBus, Report: reportBus, Period: period, Smooth: 1.0,
	}
}

// Name implements Gauge.
func (g *LoadGauge) Name() string { return g.name }

// Host implements Gauge.
func (g *LoadGauge) Host() netsim.NodeID { return g.host }

// Value returns the current (smoothed) load.
func (g *LoadGauge) Value() float64 { return g.value }

func (g *LoadGauge) start() {
	g.sub = g.Probe.Subscribe(g.host,
		bus.TopicAndField(probes.TopicQueue, "group", g.group),
		func(m bus.Message) {
			if tr := g.Probe.Tracer(); tr != nil {
				g.lastUpd = tr.Instant(obs.KindGaugeUpdate, m.Span, g.Probe.Label, g.name, m.V1, 0)
			}
			v := m.V1
			if !g.seen || g.Smooth >= 1 {
				g.value = v
				g.seen = true
				return
			}
			g.value = g.Smooth*v + (1-g.Smooth)*g.value
		})
	g.stopTick = g.K.Ticker(g.K.Now()+g.Period, g.Period, func(sim.Time) {
		if !g.seen {
			return
		}
		report(g.Report, g.host, g.name, g.group, KindGroup, operators.PropLoad, g.value, g.lastUpd)
	})
}

func (g *LoadGauge) stop() {
	if g.sub != nil {
		g.Probe.Unsubscribe(g.sub)
		g.sub = nil
	}
	if g.stopTick != nil {
		g.stopTick()
		g.stopTick = nil
	}
}

// --- Bandwidth gauge ---

// BandwidthGauge periodically queries Remos for the available bandwidth
// between a client and its server group and reports it as the client role's
// bandwidth property. Re-targeting after a move repair goes through the
// Manager (destroy/recreate, or Retarget under caching).
type BandwidthGauge struct {
	name   string
	host   netsim.NodeID
	client string

	K      *sim.Kernel
	Report *bus.Shard
	Rm     *remos.Service
	Period float64

	// ServerHost yields the measurement endpoint for the client's current
	// group (the first active server's machine).
	ServerHost func() (netsim.NodeID, bool)
	ClientHost netsim.NodeID

	stopTick func()
	stopped  bool
	inFlight bool
	sentAt   sim.Time
	// seq numbers the gauge's queries; a reply tagged with an older one was
	// superseded by a retry.
	seq  uint64
	last float64
	seen bool
}

// NewBandwidthGauge creates a bandwidth gauge for client, running on host.
func NewBandwidthGauge(k *sim.Kernel, reportBus *bus.Shard, rm *remos.Service, host netsim.NodeID, client string, clientHost netsim.NodeID, serverHost func() (netsim.NodeID, bool), period float64) *BandwidthGauge {
	return &BandwidthGauge{
		name: "bandwidth:" + client, host: host, client: client,
		K: k, Report: reportBus, Rm: rm, Period: period,
		ServerHost: serverHost, ClientHost: clientHost,
	}
}

// Name implements Gauge.
func (g *BandwidthGauge) Name() string { return g.name }

// Host implements Gauge.
func (g *BandwidthGauge) Host() netsim.NodeID { return g.host }

// Last returns the last reported value.
func (g *BandwidthGauge) Last() (float64, bool) { return g.last, g.seen }

func (g *BandwidthGauge) start() {
	g.stopped = false
	g.stopTick = g.K.Ticker(g.K.Now()+g.Period, g.Period, func(now sim.Time) {
		if g.inFlight {
			// A lost query or reply must not wedge the gauge: give a cold
			// collection ample time, then retry.
			if now-g.sentAt < remos.ColdDelay+4*g.Period {
				return
			}
			g.inFlight = false
		}
		sh, ok := g.ServerHost()
		if !ok {
			return
		}
		g.inFlight = true
		g.sentAt = now
		g.seq++
		g.Rm.GetFlowArg(g.host, sh, g.ClientHost, bandwidthReplyFn, g, g.seq)
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
	var parent obs.SpanID
	if tr := g.Report.Tracer(); tr != nil {
		parent = tr.Instant(obs.KindGaugeUpdate, 0, g.Report.Label, g.name, bw, 0)
	}
	report(g.Report, g.host, g.name, g.client, KindClientRole, operators.PropBandwidth, bw, parent)
}

func (g *BandwidthGauge) stop() {
	g.stopped = true
	if g.stopTick != nil {
		g.stopTick()
		g.stopTick = nil
	}
}

var _ Gauge = (*LatencyGauge)(nil)
var _ Gauge = (*LoadGauge)(nil)
var _ Gauge = (*BandwidthGauge)(nil)
