package netsim

import (
	"testing"

	"archadapt/internal/sim"
)

func TestGenerateGridShape(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 8, HostsPerRouter: 3, CrossLinks: 2})
	if len(g.Routers) != 8 {
		t.Fatalf("routers = %d, want 8", len(g.Routers))
	}
	if g.NumHosts() != 24 {
		t.Fatalf("hosts = %d, want 24", g.NumHosts())
	}
	// 24 access + 7 chain + 2 chords.
	if got := g.Net.NumLinks(); got != 33 {
		t.Fatalf("links = %d, want 33", got)
	}
	if got := len(g.Backbone); got != 9 {
		t.Fatalf("backbone links = %d, want 9", got)
	}
	for _, h := range g.Hosts {
		if g.Net.Node(h).Router {
			t.Fatalf("host %v marked as router", h)
		}
		r := g.RouterOf(h)
		if !g.Net.Node(r).Router {
			t.Fatalf("RouterOf(%v) = %v is not a router", h, r)
		}
		link := g.Net.Link(g.AccessLink(h))
		if link.A != h && link.B != h {
			t.Fatalf("access link of %v does not touch it", h)
		}
	}
}

func TestGenerateGridConnectivity(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 12, HostsPerRouter: 2, Seed: 7})
	// Every host pair must be routable (route panics if not).
	src := g.Hosts[0]
	for _, dst := range g.Hosts[1:] {
		if hops := g.Net.PathHops(src, dst); hops < 2 {
			t.Fatalf("path %v->%v has %d hops, want >=2", src, dst, hops)
		}
	}
}

func TestGenerateGridDeterministic(t *testing.T) {
	spec := GridSpec{Routers: 16, HostsPerRouter: 2, CrossLinks: 4, Seed: 42}
	a := GenerateGrid(sim.NewKernel(), spec)
	b := GenerateGrid(sim.NewKernel(), spec)
	if a.Net.NumLinks() != b.Net.NumLinks() {
		t.Fatalf("link counts differ: %d vs %d", a.Net.NumLinks(), b.Net.NumLinks())
	}
	for i := range a.Backbone {
		la, lb := a.Net.Link(a.Backbone[i]), b.Net.Link(b.Backbone[i])
		if la.A != lb.A || la.B != lb.B {
			t.Fatalf("backbone link %d differs: %v-%v vs %v-%v", i, la.A, la.B, lb.A, lb.B)
		}
	}
}

func TestGenerateGridDefaults(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 5, HostsPerRouter: 2})
	// Routers/4 = 1 default chord, like Figure 6's R2-R4 cross link.
	if got := len(g.Backbone); got != 5 {
		t.Fatalf("backbone links = %d, want 4 chain + 1 chord", got)
	}
	for _, h := range g.Hosts {
		if got := g.Net.Link(g.AccessLink(h)).Capacity; got != 10e6 {
			t.Fatalf("access capacity = %v, want 10e6", got)
		}
	}
}

func TestRouterIndex(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 4, HostsPerRouter: 3, Seed: 1})
	for r, hosts := range g.HostsByRouter {
		for _, h := range hosts {
			if got := g.RouterIndex(h); got != r {
				t.Errorf("RouterIndex(%v) = %d, want %d", h, got, r)
			}
			if g.Routers[g.RouterIndex(h)] != g.RouterOf(h) {
				t.Errorf("RouterIndex and RouterOf disagree for host %v", h)
			}
		}
	}
	// Routers themselves are not hosts, nor are ids the grid never issued;
	// RouterOf used to answer those with the map zero value — router R1.
	for _, n := range []NodeID{g.Routers[0], g.Routers[3], NodeID(g.Net.NumNodes()), -1} {
		if idx, r := g.RouterIndex(n), g.RouterOf(n); idx != -1 || r != -1 {
			t.Errorf("node %d is not a grid host: RouterIndex = %d, RouterOf = %d, want -1 and -1", n, idx, r)
		}
	}
}
