package gauges

import (
	"fmt"
	"sort"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// The gauge protocol's fixed costs.
const (
	// createMsgs and deleteMsgs are the round trips of a creation and a
	// deletion handshake.
	createMsgs, deleteMsgs = 4, 2
	// msgBits is the size of one protocol message.
	msgBits = 8192
	// protocolDelay pads each round trip: deployment, class loading,
	// subscription setup.
	protocolDelay = 2.5
	// retryTimeout bounds each handshake leg: a lost message is
	// retransmitted after this long, so gauge deployment survives lossy
	// monitoring networks.
	retryTimeout = 15
)

// Manager owns gauge lifecycles and implements the gauge protocol the paper
// defines "for gauge creation, communication, and deletion".
//
// Creating a gauge costs createMsgs sequential control-message round trips
// between the owning application's manager host and the gauge host, each
// padded by protocolDelay (deployment, class loading, subscription setup —
// the costs that made the paper's repairs average 30 seconds). Deletion
// costs deleteMsgs round trips. With Caching enabled, a re-target after a
// repair is a single reconfiguration round trip instead of delete+create —
// the paper's §5.3 proposal ("caching gauges or relocating them ... should
// see our repair speed improve dramatically").
//
// One Manager serves a whole fleet: applications attach through Leases,
// which scope gauge names and anchor the protocol exchanges at the leasing
// application's manager host. The Manager's lifecycle counters are
// fleet-wide; per-application counters live on the Lease. DefaultLease,
// anchored at the manager's own host, is the single-tenant configuration of
// the per-application reference oracle.
type Manager struct {
	k    *sim.Kernel
	net  *netsim.Network
	host netsim.NodeID

	Priority netsim.Priority
	Caching  bool

	gauges map[gaugeKey]Gauge
	leases map[string]*Lease
	def    *Lease

	creates, deletes, retargets uint64
	protocolBusy                float64 // cumulative protocol time
}

// gaugeKey scopes a gauge name to its leasing application.
type gaugeKey struct{ app, name string }

// Lease is one application's handle on the shared gauge manager: it scopes
// gauge names to the application and anchors lifecycle handshakes at the
// application's manager host.
type Lease struct {
	m    *Manager
	app  string
	host netsim.NodeID

	deployed                    int
	creates, deletes, retargets uint64
	closed                      bool
}

// NewManager creates a gauge manager. host anchors the default lease (the
// single-tenant configuration); fleet tenants anchor their own leases.
func NewManager(k *sim.Kernel, net *netsim.Network, host netsim.NodeID) *Manager {
	return &Manager{
		k: k, net: net, host: host,
		gauges: map[gaugeKey]Gauge{},
		leases: map[string]*Lease{},
	}
}

// Lease attaches an application to the manager. Gauge names are scoped to
// app; protocol exchanges for this lease run between host (the application's
// manager machine) and each gauge's host.
func (m *Manager) Lease(app string, host netsim.NodeID) (*Lease, error) {
	if _, dup := m.leases[app]; dup {
		return nil, fmt.Errorf("gauges: application %q already holds a lease", app)
	}
	l := &Lease{m: m, app: app, host: host}
	m.leases[app] = l
	return l, nil
}

// Leases returns the number of live (non-default) leases.
func (m *Manager) Leases() int { return len(m.leases) }

// Counts returns fleet-wide lifecycle statistics (creates, deletes,
// retargets) across every lease.
func (m *Manager) Counts() (creates, deletes, retargets uint64) {
	return m.creates, m.deletes, m.retargets
}

// ProtocolTime returns cumulative time spent in lifecycle protocol
// exchanges, fleet-wide.
func (m *Manager) ProtocolTime() float64 { return m.protocolBusy }

// Deployed returns the number of live gauges across every lease.
func (m *Manager) Deployed() int { return len(m.gauges) }

// DefaultLease returns the manager's default lease, anchored at the
// manager's host — the handle single-tenant owners (the per-application
// reference configuration) operate through. It is created on first use.
func (m *Manager) DefaultLease() *Lease {
	if m.def == nil {
		m.def = &Lease{m: m, app: "", host: m.host}
	}
	return m.def
}

// exchange is one handshake in flight: rounds sequential round trips
// between anchor and host, each a request leg, protocolDelay of work and an
// ack leg, then the continuation. Its legs live inline and static callbacks
// drive them, so a handshake allocates this record and nothing else.
type exchange struct {
	m            *Manager
	anchor, host netsim.NodeID
	rounds       int // round trips still to start
	start        sim.Time

	// The continuation: start g if it is still deployed under app (a
	// creation), then run the teardowns queued at rest (Close), then done.
	app  string
	g    Gauge
	rest []netsim.NodeID
	done func()

	sent int // legs sent so far
	legs [2 * createMsgs]leg
}

// leg is one protocol message, retransmitted after retryTimeout until it
// lands: the request (anchor to host) or the ack (host to anchor).
type leg struct {
	x              *exchange
	ack, delivered bool
}

// handshake starts x's round trips now.
func (m *Manager) handshake(x *exchange) {
	x.m, x.start = m, m.k.Now()
	x.step()
}

// step starts the next round trip, or finishes the exchange.
func (x *exchange) step() {
	if x.rounds == 0 {
		x.finish()
		return
	}
	x.rounds--
	x.send(false)
}

// send sends the exchange's next leg.
func (x *exchange) send(ack bool) {
	l := &x.legs[x.sent]
	x.sent++
	l.x, l.ack = x, ack
	attempt(l)
}

// attempt sends leg a's message and arms its retransmission; a delivered leg
// sends nothing more.
func attempt(a any) {
	l := a.(*leg)
	if l.delivered {
		return
	}
	x := l.x
	from, to := x.anchor, x.host
	if l.ack {
		from, to = to, from
	}
	m := x.m
	m.net.SendMessageTo(from, to, msgBits, m.Priority, deliver, l)
	m.k.AtAnonArg(m.k.Now()+retryTimeout, attempt, l)
}

// deliver lands leg a's first copy: a request is followed by the protocol
// work and the ack, an ack by the next round trip.
func deliver(a any) {
	l := a.(*leg)
	if l.delivered {
		return
	}
	l.delivered = true
	if l.ack {
		l.x.step()
		return
	}
	k := l.x.m.k
	k.AtAnonArg(k.Now()+protocolDelay, sendAck, l.x)
}

// sendAck sends exchange a's ack leg once the protocol work is done.
func sendAck(a any) { a.(*exchange).send(true) }

// finish accounts the exchange's protocol time and runs its continuation.
func (x *exchange) finish() {
	m := x.m
	m.protocolBusy += m.k.Now() - x.start
	if x.g != nil && m.gauges[gaugeKey{x.app, x.g.Name()}] == x.g { // not deleted meanwhile
		x.g.start()
	}
	if len(x.rest) > 0 {
		m.handshake(&exchange{anchor: x.anchor, host: x.rest[0], rounds: deleteMsgs, rest: x.rest[1:], done: x.done})
		return
	}
	if x.done != nil {
		x.done()
	}
}

// App returns the lease's application name.
func (l *Lease) App() string { return l.app }

// Deployed returns the number of live gauges under this lease.
func (l *Lease) Deployed() int { return l.deployed }

// Counts returns this lease's lifecycle statistics.
func (l *Lease) Counts() (creates, deletes, retargets uint64) {
	return l.creates, l.deletes, l.retargets
}

// Gauge returns a deployed gauge by (lease-scoped) name.
func (l *Lease) Gauge(name string) Gauge { return l.m.gauges[gaugeKey{l.app, name}] }

// Create deploys a gauge: after the creation handshake completes the gauge
// starts measuring and reporting. done (optional) fires when the gauge is
// live.
func (l *Lease) Create(g Gauge, done func()) error {
	if l.closed {
		return fmt.Errorf("gauges: lease %q is closed", l.app)
	}
	key := gaugeKey{l.app, g.Name()}
	if _, dup := l.m.gauges[key]; dup {
		return fmt.Errorf("gauges: %s already deployed", g.Name())
	}
	l.creates++
	l.m.creates++
	l.m.gauges[key] = g
	l.deployed++
	l.m.handshake(&exchange{anchor: l.host, host: g.Host(), rounds: createMsgs, app: l.app, g: g, done: done})
	return nil
}

// Delete tears a gauge down; done fires when the teardown handshake
// completes.
func (l *Lease) Delete(name string, done func()) error {
	key := gaugeKey{l.app, name}
	g, ok := l.m.gauges[key]
	if !ok {
		return fmt.Errorf("gauges: no gauge %s", name)
	}
	l.deletes++
	l.m.deletes++
	delete(l.m.gauges, key)
	l.deployed--
	g.stop()
	l.m.handshake(&exchange{anchor: l.host, host: g.Host(), rounds: deleteMsgs, done: done})
	return nil
}

// Recreate implements the repair-time gauge churn for one gauge: without
// caching it is Delete followed by Create of the replacement; with caching
// it is a single reconfiguration round trip (the replacement gauge reuses
// the deployed instance's slot). done fires when the gauge is live again.
// A replacement whose name another live gauge holds is rejected before
// anything is torn down.
func (l *Lease) Recreate(old string, replacement Gauge, done func()) error {
	oldKey := gaugeKey{l.app, old}
	g, ok := l.m.gauges[oldKey]
	if !ok {
		return fmt.Errorf("gauges: no gauge %s", old)
	}
	if cur, held := l.m.gauges[gaugeKey{l.app, replacement.Name()}]; held && cur != g {
		return fmt.Errorf("gauges: %s already deployed", replacement.Name())
	}
	if l.m.Caching {
		l.retargets++
		l.m.retargets++
		g.stop()
		delete(l.m.gauges, oldKey)
		l.m.gauges[gaugeKey{l.app, replacement.Name()}] = replacement
		l.m.handshake(&exchange{anchor: l.host, host: replacement.Host(), rounds: 1, app: l.app, g: replacement, done: done})
		return nil
	}
	return l.Delete(old, func() {
		// Refused only if the lease closed or the name was taken during
		// the teardown.
		_ = l.Create(replacement, done)
	})
}

// Close retires the lease: every remaining gauge stops measuring
// immediately, then the teardown handshakes for all of them run as one
// batched lifecycle pass (sequentially, in gauge-name order, like repair
// churn). done (optional) fires when the last teardown completes. After
// Close the lease's name is free for a future admission.
func (l *Lease) Close(done func()) {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.m.leases, l.app)

	// Collect and stop this lease's gauges in deterministic order.
	var names []string
	for key := range l.m.gauges {
		if key.app == l.app {
			names = append(names, key.name)
		}
	}
	sort.Strings(names)
	hosts := make([]netsim.NodeID, len(names))
	for i, name := range names {
		key := gaugeKey{l.app, name}
		g := l.m.gauges[key]
		hosts[i] = g.Host()
		l.deletes++
		l.m.deletes++
		delete(l.m.gauges, key)
		l.deployed--
		g.stop()
	}

	// One dispatch pass over the teardown handshakes: an exchange of no
	// round trips whose continuation runs them.
	l.m.handshake(&exchange{anchor: l.host, rest: hosts, done: done})
}
