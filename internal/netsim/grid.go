package netsim

import (
	"fmt"

	"archadapt/internal/sim"
)

// A generated grid's links all have the testbed's wiring: 10 Mbps per
// direction and 1 ms per traversal.
const (
	BackboneBps = 10e6
	AccessBps   = 10e6
	propDelay   = 1e-3
)

// GridSpec parameterizes a generated grid topology. It scales the paper's
// Figure 6 testbed — a chain of routers with a cross link and a handful of
// hosts per router — up to arbitrary sizes: Routers routers in a chain, each
// with HostsPerRouter hosts hanging off it, plus CrossLinks seeded chords
// that give the backbone the kind of alternate paths repairs exploit.
type GridSpec struct {
	// Routers is the backbone length (Figure 6: 5). Minimum 1.
	Routers int
	// HostsPerRouter is the number of hosts attached to each router
	// (Figure 6 averages ≈2). Minimum 1.
	HostsPerRouter int

	// CrossLinks is the number of extra backbone chords beyond the chain
	// (Figure 6 has one, R2–R4). Zero defaults to Routers/4; negative means
	// none. Chord endpoints are drawn from Seed, so a spec is a complete,
	// reproducible description of the topology.
	CrossLinks int
	// Seed drives chord selection.
	Seed uint64
}

// withDefaults resolves zero fields to the testbed-scale defaults.
func (s GridSpec) withDefaults() GridSpec {
	if s.Routers < 1 {
		s.Routers = 1
	}
	if s.HostsPerRouter < 1 {
		s.HostsPerRouter = 1
	}
	if s.CrossLinks == 0 {
		s.CrossLinks = s.Routers / 4
	}
	if s.CrossLinks < 0 {
		s.CrossLinks = 0
	}
	return s
}

// Grid is a generated topology: the network plus the structure the fleet
// scheduler needs (which hosts exist, which router each hangs off, and each
// host's access link for targeted contention).
type Grid struct {
	Net  *Network
	Spec GridSpec // resolved (defaults filled in)

	Routers []NodeID
	// Hosts lists every host in creation order: router-major, then host
	// index. Placement iterates this order, which makes placement
	// deterministic.
	Hosts         []NodeID
	HostsByRouter [][]NodeID
	// Backbone lists the chain links followed by the chords.
	Backbone []LinkID

	// region and access are indexed by NodeID: a host's router index and
	// access link, -1 for the routers.
	region []int32
	access []LinkID
}

// GenerateGrid builds a grid topology on a fresh network bound to k.
// Routers are named R1..Rn and hosts RiHj. The same spec always produces
// the same topology.
func GenerateGrid(k *sim.Kernel, spec GridSpec) *Grid {
	spec = spec.withDefaults()
	g := &Grid{Net: New(k), Spec: spec}
	for i := 0; i < spec.Routers; i++ {
		g.Routers = append(g.Routers, g.Net.AddRouter(fmt.Sprintf("R%d", i+1)))
		g.region, g.access = append(g.region, -1), append(g.access, -1)
	}
	for i, r := range g.Routers {
		var hosts []NodeID
		for j := 0; j < spec.HostsPerRouter; j++ {
			h := g.Net.AddHost(fmt.Sprintf("R%dH%d", i+1, j+1))
			g.region = append(g.region, int32(i))
			g.access = append(g.access, g.Net.Connect(h, r, AccessBps, propDelay))
			hosts = append(hosts, h)
			g.Hosts = append(g.Hosts, h)
		}
		g.HostsByRouter = append(g.HostsByRouter, hosts)
	}
	// Backbone chain R1–R2–…–Rn.
	for i := 0; i+1 < spec.Routers; i++ {
		g.Backbone = append(g.Backbone,
			g.Net.Connect(g.Routers[i], g.Routers[i+1], BackboneBps, propDelay))
	}
	// Seeded chords (skipping chain-adjacent and duplicate pairs).
	if spec.Routers >= 4 && spec.CrossLinks > 0 {
		rng := sim.NewRand(spec.Seed ^ 0xc2b2ae3d27d4eb4f)
		used := map[[2]int]bool{}
		placed := 0
		for tries := 0; placed < spec.CrossLinks && tries < 64*spec.CrossLinks; tries++ {
			i := rng.Intn(spec.Routers - 2)
			j := i + 2 + rng.Intn(spec.Routers-i-2)
			if used[[2]int{i, j}] {
				continue
			}
			used[[2]int{i, j}] = true
			g.Backbone = append(g.Backbone,
				g.Net.Connect(g.Routers[i], g.Routers[j], BackboneBps, propDelay))
			placed++
		}
	}
	return g
}

// RouterOf returns the router a host hangs off, or -1 for a node that is
// not a grid host.
func (g *Grid) RouterOf(h NodeID) NodeID {
	if i := g.RouterIndex(h); i >= 0 {
		return g.Routers[i]
	}
	return -1
}

// RouterIndex returns the 0-based region index of a host's router (the
// index into Routers and HostsByRouter), or -1 for a node that is not a
// grid host. Region-indexed structures (the fleet's region-health index)
// key off it.
func (g *Grid) RouterIndex(h NodeID) int {
	if h < 0 || int(h) >= len(g.region) {
		return -1
	}
	return int(g.region[h])
}

// AccessLink returns a host's access link (for targeted contention); -1
// for a router.
func (g *Grid) AccessLink(h NodeID) LinkID { return g.access[h] }

// NumHosts returns the host count.
func (g *Grid) NumHosts() int { return len(g.Hosts) }

// String summarizes the topology.
func (g *Grid) String() string {
	return fmt.Sprintf("grid{routers=%d hosts=%d links=%d backbone=%d}",
		len(g.Routers), len(g.Hosts), g.Net.NumLinks(), len(g.Backbone))
}
