// Open-loop support: aggregated flow classes and synthetic response
// delivery. Where the closed-loop clients above generate one Request object
// per arrival, the open-loop engine (internal/fleet) models up to 10^6 users
// per application as a handful of aggregated classes — one per
// (client-region, server-group) pair — each carried by a single
// demand-capped netsim class flow. The application layer contributes the
// two pieces that must understand its own structure: grouping clients into
// classes, and feeding the synthetic verdicts back through the same
// OnResponse listener chain the real pipeline uses, so probes, gauges and
// the repair loop are indistinguishable from the closed-loop path.
package app

import (
	"fmt"
	"slices"

	"archadapt/internal/netsim"
)

// FlowClass aggregates the clients of one (client-region, server-group)
// pair into a single modeled traffic class. Src is the representative
// ingress host (the first member's host — class reply traffic enters the
// region at one access link); Dst is the host of the group's first active
// server, falling back to the queue machine while a group has no active
// server. Flow and the accounting fields belong to the open-loop engine.
type FlowClass struct {
	Region int
	Group  string
	// GroupPos is Group's position in System.Groups(), -1 while the group
	// has no queue.
	GroupPos int
	Src      netsim.NodeID
	Dst      netsim.NodeID
	// Members are the clients aggregated into this class, in registration
	// order.
	Members []*Client

	// Flow is the class's demand-capped reply flow on the shared network
	// (nil until the engine starts it; nil forever for Src == Dst classes
	// started through StartClassFlow, which keeps them off the solver).
	Flow *netsim.Flow
	// NetBacklog is the fluid queue of reply bits emitted by the servers
	// but not yet granted network capacity; LastDelivered is the
	// Flow.Delivered() reading at the previous adjust tick; EmitRate is the
	// bits/sec the servers were emitting into the network over the current
	// interval; Credit carries the fractional response count between ticks.
	NetBacklog    float64
	LastDelivered float64
	EmitRate      float64
	Credit        float64
}

// BuildFlowClasses groups the system's clients into flow classes keyed by
// (regionOf(client host), client group), in first-seen client-registration
// order — deterministic for a deterministic client set. regionOf maps a
// host to its region index (the fleet passes Grid.RouterIndex).
func BuildFlowClasses(s *System, regionOf func(netsim.NodeID) int) []*FlowClass {
	var out []*FlowClass
	for _, c := range s.clientList {
		region := regionOf(c.Host)
		i := findClass(out, region, c.Group)
		if i < 0 {
			i = len(out)
			out = append(out, &FlowClass{
				Region: region, Group: c.Group, GroupPos: slices.Index(s.order.groups, c.Group),
				Src: c.Host, Dst: s.groupAnchor(c.Group),
			})
		}
		out[i].Members = append(out[i].Members, c)
	}
	return out
}

// findClass returns the index of the class keyed (region, group), -1 if
// there is none; nil entries are skipped. An application's clients span a
// handful of classes, so a scan beats a map.
func findClass(classes []*FlowClass, region int, group string) int {
	for i, fc := range classes {
		if fc != nil && fc.Region == region && fc.Group == group {
			return i
		}
	}
	return -1
}

// FlowClasses is one system's class set, kept current by Sync. The zero
// value holds no classes and rebuilds on its first Sync.
type FlowClasses struct {
	List   []*FlowClass
	rev    uint64 // the MemberRev List was built at
	synced bool
}

// Sync brings List up to date with the system's membership and reports
// whether it changed anything. While MemberRev holds still the classes
// BuildFlowClasses would return are the ones List has, so Sync returns at
// once. Otherwise it rebuilds, carrying each old class's accounting over to
// the new class with the same (region, group) key, and its flow too as long
// as both endpoints held still. A class whose endpoints moved restarts its
// flow, and a class that no longer exists loses it: both are cancelled (bits
// in flight at the switch are dropped — the fluid model's cost of a
// re-anchoring, not worth tracking).
func (fs *FlowClasses) Sync(s *System, regionOf func(netsim.NodeID) int) bool {
	if fs.synced && fs.rev == s.memberRev {
		return false
	}
	fresh := BuildFlowClasses(s, regionOf)
	old := fs.List
	for _, fc := range fresh {
		i := findClass(old, fc.Region, fc.Group)
		if i < 0 {
			continue
		}
		prev := old[i]
		old[i] = nil // matched: keys are unique, so nothing else claims it
		fc.NetBacklog, fc.EmitRate, fc.Credit = prev.NetBacklog, prev.EmitRate, prev.Credit
		if prev.Src == fc.Src && prev.Dst == fc.Dst {
			fc.Flow = prev.Flow
			fc.LastDelivered = prev.LastDelivered
		} else if prev.Flow != nil {
			prev.Flow.Cancel()
		}
	}
	for _, prev := range old {
		if prev != nil && prev.Flow != nil {
			prev.Flow.Cancel()
		}
	}
	fs.List, fs.rev, fs.synced = fresh, s.memberRev, true
	return true
}

// Reset forgets the classes without touching their flows (the caller has
// cancelled them); the next Sync rebuilds from scratch.
func (fs *FlowClasses) Reset() { fs.List, fs.synced = nil, false }

// groupAnchor returns the host class reply traffic originates from: the
// group's first active server, else the queue machine.
func (s *System) groupAnchor(group string) netsim.NodeID {
	if srv, _ := s.ActiveServers(group); srv != nil {
		return srv.Host
	}
	return s.QueueHost
}

// DeliverSynthetic feeds one aggregated latency verdict into the client's
// response pipeline: the responses counter advances by count (the modeled
// completions since the last tick), and a single Response carrying the
// verdict latency is emitted to the OnResponse listeners even when count is
// zero — during a total outage the gauges must still see the (terrible)
// latency, exactly as the closed-loop observer reports the age of the
// oldest outstanding request. The synthetic Request is cached per client
// (never sent), so it is never in the latency observer's outstanding
// list and every delivery is a no-op for that bookkeeping.
func (c *Client) DeliverSynthetic(now float64, latency float64, count uint64) {
	c.responses += count
	if c.synth == nil {
		c.synth = &Request{cli: c}
	}
	c.synth.q = c.q
	c.synth.RespBits = c.RespBits()
	done := Response{Req: c.synth, DoneAt: now, Latency: latency}
	for _, fn := range c.OnResponse {
		fn(done)
	}
}

// RemoveServer unregisters a server process entirely — the autoscaling
// teardown path (scale-down, and dropping scaled replicas before a
// migration re-placement, whose Rehost must cover exactly the spec's
// processes). The server is force-deactivated; an in-flight request, if
// any, completes against the detached handle.
func (s *System) RemoveServer(name string) error {
	srv := s.servers[name]
	if srv == nil {
		return fmt.Errorf("app: no server %q", name)
	}
	srv.active = false
	srv.stopped = false
	delete(s.servers, name)
	// The two order lists are parallel: one index serves both.
	i := slices.Index(s.serverList, srv)
	s.order.servers = slices.Delete(s.order.servers, i, i+1)
	s.serverList = slices.Delete(s.serverList, i, i+1)
	s.memberRev++
	return nil
}
