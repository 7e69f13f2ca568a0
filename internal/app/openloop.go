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
	Src    netsim.NodeID
	Dst    netsim.NodeID
	// Members are the client names aggregated into this class, in
	// registration order.
	Members []string

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
	type key struct {
		region int
		group  string
	}
	idx := map[key]*FlowClass{}
	var out []*FlowClass
	for _, c := range s.clientList {
		k := key{regionOf(c.Host), c.Group}
		fc := idx[k]
		if fc == nil {
			fc = &FlowClass{Region: k.region, Group: c.Group, Src: c.Host, Dst: s.groupAnchor(c.Group)}
			idx[k] = fc
			out = append(out, fc)
		}
		fc.Members = append(fc.Members, c.Name)
	}
	return out
}

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
// (ID 0, never sent), so it is never in the latency observer's outstanding
// list and every delivery is a no-op for that bookkeeping.
func (c *Client) DeliverSynthetic(now float64, latency float64, count uint64) {
	c.responses += count
	if c.synth == nil {
		c.synth = &Request{Client: c.Name, sys: c.sys, cli: c}
	}
	c.synth.Group = c.Group
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
	return nil
}
