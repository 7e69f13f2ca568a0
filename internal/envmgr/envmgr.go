// Package envmgr implements the environment manager: the runtime-layer
// operator suite of Table 1, invoked (in the paper, via RMI) to change the
// running system. Every call is a remote invocation from the repair
// infrastructure host — restricted in the paper's testbed to the machine
// running Server 4 — so each op pays a control-message round trip on the
// simulated network before its effect lands. Manager.Apply is also the
// translator of Figure 1, arrow 5: it expands each committed model-level
// repair operation into the Table 1 calls that realize it. The paper notes
// that component was hand-tailored per platform; here it is hand-tailored
// to the simulated grid testbed.
package envmgr

import (
	"fmt"

	"archadapt/internal/app"
	"archadapt/internal/netsim"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// rpcBits is the size of one invocation message (1 KB).
const rpcBits = 8192

// OpStats counts operator invocations, for Table 1 benchmarks and tests.
type OpStats struct {
	CreateReqQueue   uint64
	FindServer       uint64
	MoveClient       uint64
	ConnectServer    uint64
	ActivateServer   uint64
	DeactivateServer uint64
	RemosGetFlow     uint64
	Failures         uint64
}

// Manager exposes the Table 1 operators against a running app.System.
type Manager struct {
	K    *sim.Kernel
	Net  *netsim.Network
	App  *app.System
	Host netsim.NodeID // repair-infrastructure machine
	Rm   *remos.Service

	stats OpStats
	// failNext, when set, makes the next mutating operator fail — failure
	// injection for the repair engine's abort path when Apply fails, set
	// through the FailNext test hook.
	failNext error
}

// New creates a manager on host.
func New(k *sim.Kernel, net *netsim.Network, a *app.System, host netsim.NodeID, rm *remos.Service) *Manager {
	return &Manager{K: k, Net: net, App: a, Host: host, Rm: rm}
}

// Stats returns operator invocation counts.
func (m *Manager) Stats() OpStats { return m.stats }

func (m *Manager) injected() error {
	if m.failNext != nil {
		err := m.failNext
		m.failNext = nil
		m.stats.Failures++
		return err
	}
	return nil
}

// Apply implements repair.Translator: it realizes one committed model-level
// operation through the Table 1 operators.
func (m *Manager) Apply(op repair.Op) error {
	switch op.Kind {
	case repair.OpAddServer:
		// The model chose the spare; realize it as connect (if the server is
		// parked on another queue) + activate.
		srv := m.App.Server(op.Server)
		if srv == nil {
			return fmt.Errorf("envmgr: no server %q", op.Server)
		}
		if srv.Group != op.Group {
			if err := m.ConnectServer(op.Server, op.Group); err != nil {
				return err
			}
		}
		return m.ActivateServer(op.Server)
	case repair.OpRemoveServer:
		return m.DeactivateServer(op.Server)
	case repair.OpMoveClient:
		return m.MoveClient(op.Client, op.Group)
	}
	return fmt.Errorf("envmgr: unknown op kind %v", op.Kind)
}

// rpc schedules effect after a round trip to target and returns the modeled
// one-way delay. Operator calls ride best effort whatever the monitoring
// priority.
func (m *Manager) rpc(target netsim.NodeID, effect func()) float64 {
	return m.Net.SendMessage(m.Host, target, rpcBits, netsim.BestEffort, effect)
}

// CreateReqQueue adds a logical request queue for a group on the queue
// machine (Table 1 createReqQueue).
func (m *Manager) CreateReqQueue(group string) error {
	if err := m.injected(); err != nil {
		return err
	}
	m.stats.CreateReqQueue++
	// Validate synchronously; the queue materializes after the RPC delay.
	if m.hasQueue(group) {
		return fmt.Errorf("envmgr: queue for %s already exists", group)
	}
	m.rpc(m.App.QueueHost, func() {
		_ = m.App.CreateQueue(group)
	})
	return nil
}

// FindServer finds a spare (inactive) server whose predicted bandwidth to
// the client is at least bwThresh (Table 1 findServer). Only Remos-warm
// pairs are visible — the cold-query lag of §5.3 is real here, so callers
// should pre-query.
func (m *Manager) FindServer(client string, bwThresh float64) (string, error) {
	m.stats.FindServer++
	cli := m.App.Client(client)
	if cli == nil {
		return "", fmt.Errorf("envmgr: no client %q", client)
	}
	best, bestBW := "", -1.0
	for _, name := range m.App.Servers() {
		srv := m.App.Server(name)
		if srv.Active() {
			continue
		}
		bw, ok := m.Rm.Predict(srv.Host, cli.Host)
		if !ok || bw < bwThresh {
			continue
		}
		if bw > bestBW {
			best, bestBW = name, bw
		}
	}
	if best == "" {
		return "", fmt.Errorf("envmgr: no spare server with %.0f bps to %s", bwThresh, client)
	}
	return best, nil
}

// MoveClient re-routes a client to another group's queue (Table 1
// moveClient).
func (m *Manager) MoveClient(client, group string) error {
	if err := m.injected(); err != nil {
		return err
	}
	if m.App.Client(client) == nil {
		return fmt.Errorf("envmgr: no client %q", client)
	}
	if !m.hasQueue(group) {
		return fmt.Errorf("envmgr: no queue for %q", group)
	}
	m.stats.MoveClient++
	m.rpc(m.App.QueueHost, func() { _ = m.App.MoveClient(client, group) })
	return nil
}

// ConnectServer points a server at a group's queue (Table 1 connectServer).
func (m *Manager) ConnectServer(server, group string) error {
	if err := m.injected(); err != nil {
		return err
	}
	srv := m.App.Server(server)
	if srv == nil {
		return fmt.Errorf("envmgr: no server %q", server)
	}
	if srv.Active() {
		return fmt.Errorf("envmgr: server %q is active", server)
	}
	if !m.hasQueue(group) {
		return fmt.Errorf("envmgr: no queue for %q", group)
	}
	m.stats.ConnectServer++
	m.rpc(srv.Host, func() { _ = m.App.ConnectServer(server, group) })
	return nil
}

// ActivateServer signals a server to begin pulling requests (Table 1
// activateServer).
func (m *Manager) ActivateServer(server string) error {
	if err := m.injected(); err != nil {
		return err
	}
	srv := m.App.Server(server)
	if srv == nil {
		return fmt.Errorf("envmgr: no server %q", server)
	}
	if srv.Active() {
		return fmt.Errorf("envmgr: server %q already active", server)
	}
	m.stats.ActivateServer++
	m.rpc(srv.Host, func() { _ = m.App.Activate(server) })
	return nil
}

// DeactivateServer signals a server to stop pulling requests (Table 1
// deactivateServer).
func (m *Manager) DeactivateServer(server string) error {
	if err := m.injected(); err != nil {
		return err
	}
	srv := m.App.Server(server)
	if srv == nil {
		return fmt.Errorf("envmgr: no server %q", server)
	}
	if !srv.Active() {
		return fmt.Errorf("envmgr: server %q not active", server)
	}
	m.stats.DeactivateServer++
	m.rpc(srv.Host, func() { _ = m.App.Deactivate(server) })
	return nil
}

// RemosGetFlow returns (asynchronously) the predicted bandwidth between a
// client and a server (Table 1 remos_get_flow).
func (m *Manager) RemosGetFlow(client, server string, cb func(bw float64)) error {
	m.stats.RemosGetFlow++
	cli := m.App.Client(client)
	if cli == nil {
		return fmt.Errorf("envmgr: no client %q", client)
	}
	srv := m.App.Server(server)
	if srv == nil {
		return fmt.Errorf("envmgr: no server %q", server)
	}
	m.Rm.GetFlow(m.Host, srv.Host, cli.Host, cb)
	return nil
}

func (m *Manager) hasQueue(group string) bool {
	for _, g := range m.App.Groups() {
		if g == group {
			return true
		}
	}
	return false
}
