// Package operators defines the client-server architectural style of the
// paper's example — type vocabulary, a model builder, the style-specific
// adaptation operators of §3.3 (addServer, move, remove, findGoodSGrp), and
// the repairs built from them: Figure 5 hand-coded and as a script, and the
// §1 shrink as a script.
package operators

import (
	"fmt"

	"archadapt/internal/model"
)

// Style and element type names (the ADL vocabulary of Figures 2 and 5).
const (
	FamClientServer = "ClientServerFam"
	TClient         = "ClientT"
	TServerGroup    = "ServerGroupT"
	TServer         = "ServerT"
	TReqConn        = "ReqConnT"
	TClientRole     = "ClientRoleT"
	TServerRole     = "ServerRoleT"
	TRequestPort    = "RequestT"
	TProvidePort    = "ProvideT"
	TWorkPort       = "WorkT"
)

// Property names used by gauges, constraints and tactics.
const (
	PropAvgLatency    = "averageLatency"
	PropBandwidth     = "bandwidth"
	PropLoad          = "load"
	PropActive        = "active"
	PropReplication   = "replicationCount"
	PropMaxLatency    = "maxLatency"
	PropMaxServerLoad = "maxServerLoad"
	PropMinBandwidth  = "minBandwidth"
	PropMinServerLoad = "minServerLoad"
	PropMinReplicas   = "minReplicas"
)

// Invariant names bound to repair strategies.
const (
	InvLatency     = "latencyBound"
	InvLoad        = "loadBound"
	InvBandwidth   = "bandwidthBound"
	InvUtilization = "utilizationFloor"
)

// GroupSpec describes one replicated server group: its servers in order,
// and how many of them start active (the rest are spares, the paper's S4 and
// S7).
type GroupSpec struct {
	Name        string
	Servers     []string
	ActiveCount int
}

// ClientSpec describes one client and its initial server group.
type ClientSpec struct {
	Name  string
	Group string
}

// Spec describes the whole system plus the task-layer thresholds.
type Spec struct {
	Name          string
	Groups        []GroupSpec
	Clients       []ClientSpec
	MaxLatency    float64 // seconds (paper: 2 s)
	MaxServerLoad float64 // queue length (paper: 6)
	MinBandwidth  float64 // bits/sec (paper: 10 Kbps)
}

// ConnName returns the connector name for a server group.
func ConnName(group string) string { return group + "Conn" }

// RoleName returns the client-role name for a client.
func RoleName(client string) string { return client + "Role" }

// Build constructs the architectural model for a spec: one component per
// group (with a representation holding its replicated servers), one
// connector per group (the request queue), one component per client, and the
// attachments wiring clients to their group's connector. Groups and clients
// share one namespace and every server name is used once, across groups
// too: a spec that repeats a name is an error, not a panic.
func Build(spec Spec) (*model.System, error) {
	sys := model.NewSystem(spec.Name, FamClientServer)
	sys.Props().Set(PropMaxLatency, spec.MaxLatency)
	sys.Props().Set(PropMaxServerLoad, spec.MaxServerLoad)
	sys.Props().Set(PropMinBandwidth, spec.MinBandwidth)

	servers := map[string]bool{}
	for _, g := range spec.Groups {
		switch {
		case g.ActiveCount < 0 || g.ActiveCount > len(g.Servers):
			return nil, fmt.Errorf("operators: group %s: %d active of %d servers", g.Name, g.ActiveCount, len(g.Servers))
		case sys.Component(g.Name) != nil:
			return nil, fmt.Errorf("operators: group %s: name already used", g.Name)
		}
		for _, srv := range g.Servers {
			if servers[srv] {
				return nil, fmt.Errorf("operators: group %s: server %s listed twice", g.Name, srv)
			}
			servers[srv] = true
		}
		grp := sys.AddComponent(g.Name, TServerGroup)
		grp.AddPort("provide", TProvidePort)
		grp.Props().Set(PropLoad, 0.0)
		grp.Props().Set(PropReplication, float64(g.ActiveCount))
		rep := grp.EnsureRep()
		for i, srv := range g.Servers {
			s := rep.AddComponent(srv, TServer)
			s.AddPort("work", TWorkPort)
			s.Props().Set(PropActive, i < g.ActiveCount)
		}
		conn := sys.AddConnector(ConnName(g.Name), TReqConn)
		sr := conn.AddRole("server", TServerRole)
		if err := sys.Attach(grp.Port("provide"), sr); err != nil {
			return nil, err
		}
	}
	for _, c := range spec.Clients {
		if sys.Component(c.Name) != nil {
			return nil, fmt.Errorf("operators: client %s: name already used", c.Name)
		}
		cli := sys.AddComponent(c.Name, TClient)
		cli.AddPort("request", TRequestPort)
		conn := sys.Connector(ConnName(c.Group))
		if conn == nil {
			return nil, fmt.Errorf("operators: client %s references unknown group %s", c.Name, c.Group)
		}
		role := conn.AddRole(RoleName(c.Name), TClientRole)
		if err := sys.Attach(cli.Port("request"), role); err != nil {
			return nil, err
		}
	}
	return sys, sys.Validate()
}

// GroupOf returns the server group a client is currently connected to, with
// the connector and the client's role on it.
func GroupOf(sys *model.System, cli *model.Component) (*model.Component, *model.Connector, *model.Role, error) {
	port := cli.Port("request")
	if port == nil {
		return nil, nil, nil, fmt.Errorf("operators: client %s has no request port", cli.Name())
	}
	att, natts := sys.PortAttachment(port)
	if natts != 1 {
		return nil, nil, nil, fmt.Errorf("operators: client %s has %d attachments, want 1", cli.Name(), natts)
	}
	role := att.Role
	conn := role.Owner
	// First server group attached to conn, scanning attachments directly —
	// this runs once per gauge report, so it must not build component lists.
	for _, a := range sys.Attachments() {
		if a.Role.Owner == conn && a.Port.Owner.Type() == TServerGroup {
			return a.Port.Owner, conn, role, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("operators: connector %s has no server group", conn.Name())
}

// ActiveServers returns the names of active servers in a group's
// representation, in declaration order.
func ActiveServers(grp *model.Component) []string {
	var out []string
	if grp.Rep == nil {
		return out
	}
	for _, s := range grp.Rep.Components() {
		if s.Props().BoolOr(PropActive, false) {
			out = append(out, s.Name())
		}
	}
	return out
}

// firstSpare returns the first inactive server in a group, or nil when none
// is left.
func firstSpare(grp *model.Component) *model.Component {
	if grp.Rep == nil {
		return nil
	}
	for _, s := range grp.Rep.Components() {
		if !s.Props().BoolOr(PropActive, false) {
			return s
		}
	}
	return nil
}
