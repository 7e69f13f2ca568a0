package netsim

import (
	"fmt"
	"math"

	"archadapt/internal/sim"
)

// Region-sharded event hosting.
//
// A ShardPlane maps every network node to a shard of a sequenced sim.Shards
// set, by grid region: a host belongs to its router's region, and region r
// lives on shard r mod len(set). Once attached (Grid.AttachShards), the
// network hosts its per-node events — control-message deliveries, flow
// completions, local copies — on the owning node's shard kernel instead of
// the control kernel. Deliveries that stay inside one shard are scheduled
// directly; deliveries that cross shards go through the source shard's
// conservative ShardKernel.Send outbox and are merged at the window barrier.
//
// The conservative lookahead that makes the windows sound is topological:
// every cross-region path crosses at least one backbone link, so its
// propagation delay alone is at least the minimum backbone link latency
// (Grid.Lookahead), and the per-hop control overhead makes the total delay
// strictly larger. Driving the run with Shards.Run(until, lookahead)
// therefore never produces a delivery before the barrier that must carry it
// — and the exchange's horizon panic enforces exactly that, continuously.
//
// The plane requires a sequenced shard set (sim.NewSeqShards): the shared
// sequence counter is what keeps a sharded run byte-identical to the
// single-kernel oracle, and the serial merged driver is what makes direct
// cross-shard completion rescheduling (the solver's Reschedule/Reuse churn
// on flow completion events) safe.
type ShardPlane struct {
	set     *sim.Shards
	shardOf []int32 // indexed by NodeID; nodes beyond the slice map to 0
}

// Set returns the underlying shard set.
func (p *ShardPlane) Set() *sim.Shards { return p.set }

// Shard returns the shard index hosting a node's events.
func (p *ShardPlane) shard(node NodeID) int {
	if int(node) < len(p.shardOf) {
		return int(p.shardOf[node])
	}
	return 0
}

// ShardOf returns the shard index hosting a node's events.
func (p *ShardPlane) ShardOf(node NodeID) int { return p.shard(node) }

// KernelFor returns the kernel hosting a node's events.
func (p *ShardPlane) KernelFor(node NodeID) *sim.Kernel {
	return p.set.Shard(p.shard(node)).Kernel
}

// ForEachKernel visits every shard kernel — the hook for per-kernel wiring
// that must span the whole plane (e.g. the tracer's FireHook).
func (p *ShardPlane) ForEachKernel(fn func(*sim.Kernel)) {
	for i := 0; i < p.set.Len(); i++ {
		fn(p.set.Shard(i).Kernel)
	}
}

// Lookahead returns the conservative cross-region lookahead derived from the
// topology: the minimum propagation delay over the backbone links. Any
// cross-region delivery crosses at least one backbone hop, and per-hop
// control overhead pushes its total delay strictly above this bound, so a
// window of exactly this width never needs an intra-window cross-shard
// delivery. A single-region grid has no backbone and returns +Inf: there is
// nothing to look ahead across, and Shards.Run treats an infinite window as
// one window spanning the whole run.
func (g *Grid) Lookahead() float64 {
	la := math.Inf(1)
	for _, id := range g.Backbone {
		if d := g.Net.links[id].PropDelay; d < la {
			la = d
		}
	}
	return la
}

// AttachShards binds a sequenced shard set to the grid's network and returns
// the routing plane. Shard 0 is the control shard: the caller's fleet
// control plane, plus any node the plane has never seen, lives there. Region
// r (router r and its hosts) maps to shard r mod set.Len(), so a set sized
// at the router count gives every region its own kernel and a smaller set
// folds regions together deterministically.
func (g *Grid) AttachShards(set *sim.Shards) *ShardPlane {
	if !set.Sequenced() {
		panic("netsim: AttachShards requires a sequenced shard set (sim.NewSeqShards)")
	}
	if g.Net.Shard != nil {
		panic("netsim: shard plane already attached")
	}
	n := set.Len()
	p := &ShardPlane{set: set, shardOf: make([]int32, len(g.Net.nodes))}
	for i, r := range g.Routers {
		p.shardOf[r] = int32(i % n)
	}
	for _, h := range g.Hosts {
		p.shardOf[h] = int32(g.RouterIndex(h) % n)
	}
	g.Net.Shard = p
	return p
}

// kernelFor returns the kernel hosting a node's events: the control kernel
// without a shard plane, the node's region shard with one.
func (n *Network) kernelFor(node NodeID) *sim.Kernel {
	if n.Shard == nil {
		return n.K
	}
	return n.Shard.KernelFor(node)
}

// deliver schedules an arrival callback at now+delay, hosted on the
// destination node's kernel. Same-shard deliveries are scheduled directly;
// cross-shard deliveries go through the source shard's conservative Send
// outbox, validated against the exchange horizon at the next barrier.
func (n *Network) deliver(src, dst NodeID, delay float64, fn func(), fnArg func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	sp := n.Shard
	if sp == nil {
		if fnArg != nil {
			n.K.AfterAnonArg(delay, fnArg, arg)
		} else {
			n.K.AfterAnon(delay, fn)
		}
		return
	}
	si, di := sp.shard(src), sp.shard(dst)
	at := n.K.Now() + delay
	if si == di {
		k := sp.set.Shard(di).Kernel
		if fnArg != nil {
			k.AtAnonArg(at, fnArg, arg)
		} else {
			k.AtAnon(at, fn)
		}
		return
	}
	s := sp.set.Shard(si)
	if fnArg != nil {
		s.SendArg(di, at, fnArg, arg)
	} else {
		s.Send(di, at, fn)
	}
}

// VerifyShardHosting cross-checks the plane's routing table: every host maps
// to its region's shard, every router to its own index's shard. It returns
// an error describing the first mismatch — a harness-level invariant for the
// chaos soak.
func (g *Grid) VerifyShardHosting() error {
	p := g.Net.Shard
	if p == nil {
		return nil
	}
	n := p.set.Len()
	for i, r := range g.Routers {
		if got := p.shard(r); got != i%n {
			return fmt.Errorf("netsim: router %d hosted on shard %d, want %d", i, got, i%n)
		}
	}
	for _, h := range g.Hosts {
		if got, want := p.shard(h), g.RouterIndex(h)%n; got != want {
			return fmt.Errorf("netsim: host %v (region %d) hosted on shard %d, want %d",
				h, g.RouterIndex(h), got, want)
		}
	}
	return nil
}
