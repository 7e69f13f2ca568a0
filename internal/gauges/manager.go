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

// sendReliable delivers one protocol message with retransmission: if the
// network drops it (lossy monitoring plane), it is resent after
// retryTimeout until it lands.
func (m *Manager) sendReliable(from, to netsim.NodeID, cb func()) {
	delivered := false
	var attempt func()
	attempt = func() {
		if delivered {
			return
		}
		m.net.SendMessage(from, to, msgBits, m.Priority, func() {
			if !delivered {
				delivered = true
				cb()
			}
		})
		m.k.AfterAnon(retryTimeout, func() {
			if !delivered {
				attempt()
			}
		})
	}
	attempt()
}

// handshake runs n sequential round trips between anchor and host and calls
// done.
func (m *Manager) handshake(anchor, host netsim.NodeID, n int, done func()) {
	start := m.k.Now()
	var step func(remaining int)
	step = func(remaining int) {
		if remaining == 0 {
			m.protocolBusy += m.k.Now() - start
			done()
			return
		}
		// Request leg, then protocol work, then ack leg.
		m.sendReliable(anchor, host, func() {
			m.k.AfterAnon(protocolDelay, func() {
				m.sendReliable(host, anchor, func() {
					step(remaining - 1)
				})
			})
		})
	}
	step(n)
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
	l.m.handshake(l.host, g.Host(), createMsgs, func() {
		if l.m.gauges[key] == g { // not deleted meanwhile
			g.start()
		}
		if done != nil {
			done()
		}
	})
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
	l.m.handshake(l.host, g.Host(), deleteMsgs, func() {
		if done != nil {
			done()
		}
	})
	return nil
}

// Recreate implements the repair-time gauge churn for one gauge: without
// caching it is Delete followed by Create of the replacement; with caching
// it is a single reconfiguration round trip (the replacement gauge reuses
// the deployed instance's slot). done fires when the gauge is live again.
func (l *Lease) Recreate(old string, replacement Gauge, done func()) error {
	oldKey := gaugeKey{l.app, old}
	g, ok := l.m.gauges[oldKey]
	if !ok {
		return fmt.Errorf("gauges: no gauge %s", old)
	}
	if l.m.Caching {
		l.retargets++
		l.m.retargets++
		g.stop()
		delete(l.m.gauges, oldKey)
		newKey := gaugeKey{l.app, replacement.Name()}
		l.m.gauges[newKey] = replacement
		l.m.handshake(l.host, replacement.Host(), 1, func() {
			if l.m.gauges[newKey] == replacement {
				replacement.start()
			}
			if done != nil {
				done()
			}
		})
		return nil
	}
	return l.Delete(old, func() {
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

	// One dispatch pass over the teardown handshakes.
	var step func(i int)
	step = func(i int) {
		if i >= len(hosts) {
			if done != nil {
				done()
			}
			return
		}
		l.m.handshake(l.host, hosts[i], deleteMsgs, func() { step(i + 1) })
	}
	step(0)
}
