package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"archadapt/internal/sim"
)

// oracleRoute is the routing implementation the per-relay trees replaced,
// kept as the reference: one early-terminating BFS per (src, dst) over every
// node, neighbours explored in Connect order. ok is false where it panicked
// with "no route".
func oracleRoute(n *Network, src, dst NodeID) (path []int32, ok bool) {
	if src == dst {
		return nil, true
	}
	type step struct {
		prev NodeID
		via  int32
	}
	seen := make([]bool, len(n.nodes))
	from := make([]step, len(n.nodes))
	queue := []NodeID{src}
	seen[src] = true
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, ht := range n.adj[cur] {
			if seen[ht.to] {
				continue
			}
			seen[ht.to] = true
			from[ht.to] = step{prev: cur, via: ht.ri}
			if ht.to == dst {
				found = true
				break
			}
			queue = append(queue, ht.to)
		}
	}
	if !found {
		return nil, false
	}
	var rev []int32
	for at := dst; at != src; at = from[at].prev {
		rev = append(rev, from[at].via)
	}
	path = make([]int32, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, true
}

// oracleAvail is AvailBandwidth as it was computed from a materialised path.
func oracleAvail(n *Network, path []int32) float64 {
	if len(path) == 0 {
		return 0
	}
	min := -1.0
	for _, ri := range path {
		a := n.links[ri>>1].availCap(Dir(ri & 1))
		if min < 0 || a < min {
			min = a
		}
	}
	if min < n.minFlowRate {
		min = n.minFlowRate
	}
	return min
}

// panicText runs fn and returns what it panicked with ("" if it returned).
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// CheckRoutesAgainstOracle puts seeded background load on every link and
// then, for every ordered node pair (src == dst included), requires the hop
// sequence, PathHops and AvailBandwidth to equal the oracle's, and unroutable
// pairs to panic with the oracle's message from all three entry points. The
// entry point that meets a cold pair first rotates, so each of them is the
// one to materialise routes somewhere. Exported for the external test package,
// which can import the Figure 6 testbed.
func CheckRoutesAgainstOracle(t testing.TB, n *Network, seed uint64) {
	t.Helper()
	rng := sim.NewRand(seed)
	for _, l := range n.links {
		n.SetBackground(l.ID, Fwd, rng.Float64()*1.2*l.Capacity)
		n.SetBackground(l.ID, Rev, rng.Float64()*1.2*l.Capacity)
	}
	pair := 0
	for s := range n.nodes {
		for d := range n.nodes {
			src, dst := NodeID(s), NodeID(d)
			want, ok := oracleRoute(n, src, dst)
			calls := []func(){
				func() {
					if got := n.PathHops(src, dst); got != len(want) {
						t.Fatalf("PathHops(%d,%d) = %d, oracle %d", src, dst, got, len(want))
					}
				},
				func() {
					if got, w := n.AvailBandwidth(src, dst), oracleAvail(n, want); got != w {
						t.Fatalf("AvailBandwidth(%d,%d) = %v, oracle %v", src, dst, got, w)
					}
				},
				func() {
					got := n.route(src, dst)
					if len(got) != len(want) {
						t.Fatalf("route(%d,%d) = %v, oracle %v", src, dst, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("route(%d,%d) = %v, oracle %v", src, dst, got, want)
						}
					}
				},
			}
			wantMsg := ""
			if !ok {
				wantMsg = fmt.Sprintf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name)
			}
			for i := range calls {
				if msg := panicText(calls[(pair+i)%len(calls)]); msg != wantMsg {
					t.Fatalf("pair (%d,%d): panic %q, want %q", src, dst, msg, wantMsg)
				}
			}
			pair++
		}
	}
}

func TestRouteOracleGrids(t *testing.T) {
	rng := sim.NewRand(20020724)
	specs := []GridSpec{
		{Routers: 1, HostsPerRouter: 1},
		{Routers: 1, HostsPerRouter: 4},
		{Routers: 2, HostsPerRouter: 1},
		{Routers: 40, HostsPerRouter: 4, CrossLinks: 12, Seed: 3},
	}
	for i := 0; i < 24; i++ {
		s := GridSpec{Routers: 1 + rng.Intn(40), HostsPerRouter: 1 + rng.Intn(4), Seed: rng.Uint64()}
		switch i % 3 {
		case 0:
			s.CrossLinks = -1
		case 1:
			s.CrossLinks = 1 + rng.Intn(s.Routers)
		}
		specs = append(specs, s)
	}
	for i, s := range specs {
		g := GenerateGrid(sim.NewKernel(), s)
		CheckRoutesAgainstOracle(t, g.Net, uint64(i))
	}
}

// shape builds a hand-wired network of the given node count and links, in
// Connect order. Routing never looks at Node.Router, so every node is a host.
func shape(nodes int, links ...[2]int) *Network {
	n := New(sim.NewKernel())
	for i := 0; i < nodes; i++ {
		n.AddHost(fmt.Sprintf("n%d", i))
	}
	for _, l := range links {
		n.Connect(NodeID(l[0]), NodeID(l[1]), 10e6, 1e-3)
	}
	return n
}

func TestRouteOracleShapes(t *testing.T) {
	shapes := map[string]*Network{
		"single node":             shape(1),
		"two nodes":               shape(2, [2]int{0, 1}),
		"two nodes, two links":    shape(2, [2]int{0, 1}, [2]int{1, 0}),
		"star":                    shape(6, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5}),
		"two leaves on a router":  shape(3, [2]int{1, 0}, [2]int{2, 0}),
		"bare chain":              shape(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5}),
		"ring with a leaf":        shape(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 0}, [2]int{5, 2}),
		"leaf into a tie":         shape(6, [2]int{0, 1}, [2]int{1, 3}, [2]int{1, 2}, [2]int{3, 4}, [2]int{2, 4}, [2]int{4, 5}),
		"isolated node":           shape(4, [2]int{0, 1}, [2]int{1, 2}),
		"pair apart from a chain": shape(5, [2]int{0, 1}, [2]int{2, 3}, [2]int{3, 4}),
		"two rings apart":         shape(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3}),
	}
	for name, n := range shapes {
		t.Run(name, func(t *testing.T) { CheckRoutesAgainstOracle(t, n, 1) })
	}
}

// TestRouteOracleRandomGraphs covers what the grid generator never builds:
// arbitrary connected-or-not graphs with parallel links, leaves hanging off
// leaves' neighbours and many equal-length alternatives, where only the
// exploration order decides the route.
func TestRouteOracleRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := sim.NewRand(seed)
		nodes := 2 + rng.Intn(30)
		var links [][2]int
		for i := 1; i < nodes; i++ {
			if rng.Intn(8) > 0 { // mostly a random tree, sometimes a split
				links = append(links, [2]int{i, rng.Intn(i)})
			}
		}
		for extra := rng.Intn(nodes); extra > 0; extra-- {
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			if a != b {
				links = append(links, [2]int{a, b})
			}
		}
		CheckRoutesAgainstOracle(t, shape(nodes, links...), seed)
	}
}

func TestConnectAfterLookupReroutes(t *testing.T) {
	n := shape(3, [2]int{0, 1}, [2]int{1, 2})
	if got := n.PathHops(0, 2); got != 2 {
		t.Fatalf("A->C over B = %d hops, want 2", got)
	}
	if got := len(n.route(0, 2)); got != 2 {
		t.Fatalf("materialised A->C = %d hops, want 2", got)
	}
	direct := n.Connect(0, 2, 10e6, 1e-3)
	if got := n.PathHops(0, 2); got != 1 {
		t.Fatalf("A->C after Connect(A,C) = %d hops, want 1", got)
	}
	if p := n.route(0, 2); len(p) != 1 || LinkID(p[0]>>1) != direct {
		t.Fatalf("materialised A->C after Connect(A,C) = %v, want the new link", p)
	}
	CheckRoutesAgainstOracle(t, n, 1)
}

// The same with traffic on the wire: a Connect drops the per-source memo, so
// the next send takes the new link, while a flow already in flight keeps the
// path it was started on and still completes.
func TestConnectAfterTrafficReroutesNextSend(t *testing.T) {
	n := shape(3, [2]int{0, 1}, [2]int{1, 2})
	before := n.messageDelay(0, 2, 4096, BestEffort)
	done := 0
	inflight := n.StartTransfer(0, 2, 1e6, "x", func(*Flow) { done++ })
	old := inflight.path
	if len(old) != 2 {
		t.Fatalf("in-flight flow has %d hops, want 2", len(old))
	}
	direct := n.Connect(0, 2, 10e6, 1e-3)
	if n.paths != nil {
		t.Fatal("Connect left memoised routes behind")
	}
	if after := n.messageDelay(0, 2, 4096, BestEffort); after >= before {
		t.Fatalf("message delay %v after Connect(A,C), %v before: the next send must take the new link", after, before)
	}
	next := n.StartTransfer(0, 2, 1e6, "x", func(*Flow) { done++ })
	if len(next.path) != 1 || LinkID(next.path[0]>>1) != direct {
		t.Fatalf("flow started after Connect routed %v, want the new link", next.path)
	}
	if len(inflight.path) != 2 || &inflight.path[0] != &old[0] {
		t.Fatalf("in-flight flow was rerouted to %v", inflight.path)
	}
	n.K.RunAll(0)
	if done != 2 {
		t.Fatalf("%d of 2 transfers completed", done)
	}
}

// The memo keeps each source's routes sorted by destination whatever order
// they were first asked for in, and a warm lookup returns the stored slice.
func TestRouteMemoAnyLookupOrder(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 9, HostsPerRouter: 3, Seed: 3})
	n, rng := g.Net, sim.NewRand(11)
	src := g.Hosts[4]
	first := map[NodeID][]int32{}
	for i := 0; i < 400; i++ {
		dst := g.Hosts[rng.Intn(len(g.Hosts))]
		got := n.route(src, dst)
		want, _ := oracleRoute(n, src, dst)
		if !slices.Equal(got, want) {
			t.Fatalf("route(%d,%d) = %v, oracle %v", src, dst, got, want)
		}
		if prev, seen := first[dst]; seen && len(got) > 0 && &prev[0] != &got[0] {
			t.Fatalf("warm route(%d,%d) was materialised again", src, dst)
		}
		first[dst] = got
	}
	from := n.paths[src]
	if len(from) != len(first)-1 { // src→src is never stored
		t.Fatalf("memo holds %d routes from the source, want %d", len(from), len(first)-1)
	}
	if !slices.IsSortedFunc(from, func(a, b routeTo) int { return int(a.dst - b.dst) }) {
		t.Fatalf("memo is not sorted by destination: %v", from)
	}
	if got := n.RouteStats().PathsMaterialised; got != uint64(len(from)) {
		t.Fatalf("%d paths materialised for %d pairs", got, len(from))
	}
}

// Connect used to allocate a fresh path map per link; building a topology
// must leave no routing state behind and invalidation must cost nothing.
func TestBuildingTopologyHoldsNoRoutingState(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 64, HostsPerRouter: 4})
	if g.Net.scr.row != nil || len(g.Net.paths) != 0 {
		t.Fatal("generating a grid left routing state behind")
	}
	if got := testing.AllocsPerRun(10, g.Net.dropRoutes); got != 0 {
		t.Fatalf("dropRoutes with nothing to drop allocates %v, want 0", got)
	}
}

// farthestRelay returns the relay a BFS from src over every node, exploring
// neighbours in Connect order, labels last: the lookup out of src that runs
// its search to the end.
func farthestRelay(n *Network, src NodeID) NodeID {
	seen := make([]bool, len(n.nodes))
	seen[src] = true
	far := src
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		for _, ht := range n.adj[queue[0]] {
			if !seen[ht.to] {
				seen[ht.to] = true
				queue = append(queue, ht.to)
				if len(n.adj[ht.to]) >= 2 {
					far = ht.to
				}
			}
		}
	}
	return far
}

// liveHeap returns the heap still in use after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRouteTreeBytes holds a memoised pair to what its hops and its memo
// entry need. Measuring 1 800 random host pairs on fleet-scale's grid (the
// ./benchmark probe's lookups), the heap the lookups leave live — the memo,
// the relay index and the search included — may come to at most 144 bytes
// per pair memoised: a route of about 12 hops is a 48-byte slice and its
// entry 32 bytes in its source's list. It reads about 108 bytes, 129 under
// the race detector; a route slice cut with twice its length in capacity
// reads over 150.
func TestRouteTreeBytes(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 513, HostsPerRouter: 4, Seed: 1})
	rng := sim.NewRand(1)
	const pairs = 1800
	src, dst := make([]NodeID, pairs), make([]NodeID, pairs)
	for i := range src {
		src[i] = g.Hosts[rng.Intn(len(g.Hosts))]
		for dst[i] = src[i]; dst[i] == src[i]; {
			dst[i] = g.Hosts[rng.Intn(len(g.Hosts))]
		}
	}
	before := liveHeap()
	for i := range src {
		g.Net.PathHops(src[i], dst[i])
	}
	bytes := liveHeap() - before
	st := g.Net.RouteStats()
	if st.PathsMaterialised == 0 || st.PathsMaterialised > pairs {
		t.Fatalf("%d lookups memoised %d paths", pairs, st.PathsMaterialised)
	}
	per := bytes / st.PathsMaterialised
	t.Logf("%d B live per memoised pair over %d pairs", per, st.PathsMaterialised)
	if per > 144 {
		t.Fatalf("%d B live per memoised pair, want at most 144", per)
	}
	runtime.KeepAlive(g)
}

// TestTreeRowsStopEarly holds the search to the relays a lookup needs, on
// fleet-scale's grid: a lookup to a chain neighbour dequeues a few relays; a
// farther lookup from the same source resumes the search where it stopped,
// dequeuing in all what the far lookup alone does (still the oracle's route,
// and the near route unchanged); and a lookup of a memoised pair searches
// nothing, wherever the search has moved on to since.
func TestTreeRowsStopEarly(t *testing.T) {
	spec := GridSpec{Routers: 513, HostsPerRouter: 4, Seed: 1}
	g := GenerateGrid(sim.NewKernel(), spec)
	n, relays := g.Net, uint64(len(g.Routers))
	src, near := g.Routers[200], g.Routers[201]
	far := farthestRelay(n, src)
	same := func(src, dst NodeID) {
		t.Helper()
		want, _ := oracleRoute(n, src, dst)
		if got := n.PathHops(src, dst); got != len(want) {
			t.Fatalf("PathHops(%d,%d) = %d, oracle %d", src, dst, got, len(want))
		}
		if got := n.route(src, dst); !slices.Equal(got, want) {
			t.Fatalf("route(%d,%d) = %v, oracle %v", src, dst, got, want)
		}
		if got, w := n.AvailBandwidth(src, dst), oracleAvail(n, want); got != w {
			t.Fatalf("AvailBandwidth(%d,%d) = %v, oracle %v", src, dst, got, w)
		}
	}

	same(src, near)
	st := n.RouteStats()
	if st.PathsMaterialised != 1 || st.RelayVisits*20 >= relays {
		t.Fatalf("near lookup: %+v, want 1 path and under 5 %% of %d relays dequeued", st, relays)
	}
	same(src, far)
	st2 := n.RouteStats()
	whole := GenerateGrid(sim.NewKernel(), spec).Net
	whole.PathHops(src, far)
	if st2.PathsMaterialised != 2 || st2.RelayVisits != whole.RouteStats().RelayVisits {
		t.Fatalf("far lookup after a near one: %+v then %+v, want the search resumed, dequeuing %d in all as the far lookup alone does",
			st, st2, whole.RouteStats().RelayVisits)
	}

	n.PathHops(g.Routers[10], g.Routers[300]) // the search moves to another root
	before := n.RouteStats()
	same(src, near)
	same(src, far)
	if after := n.RouteStats(); after.RelayVisits != before.RelayVisits || after.PathsMaterialised != before.PathsMaterialised {
		t.Fatalf("memo hits searched: %+v then %+v", before, after)
	}
}

// TestSiblingRoutes: a far route the search would have to start over for is
// copied from a memoised route through the same tree segment, from another
// host on the source's router or to another host on the destination's, with
// its own end link; each must still be the oracle's route.
func TestSiblingRoutes(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 64, HostsPerRouter: 4, Seed: 2})
	n := g.Net
	hub := g.Hosts[1]
	for i, h := range g.Hosts {
		n.PathHops(g.Routers[(i*7)%len(g.Routers)], g.Routers[(i*11+5)%len(g.Routers)]) // the search moves away
		for _, pair := range [][2]NodeID{{h, hub}, {hub, h}} {
			if pair[0] == pair[1] {
				continue
			}
			if got, want := n.route(pair[0], pair[1]), mustOracle(t, n, pair[0], pair[1]); !slices.Equal(got, want) {
				t.Fatalf("route(%d,%d) = %v, oracle %v", pair[0], pair[1], got, want)
			}
		}
	}
}

// mustOracle is oracleRoute for a pair that has a route.
func mustOracle(t *testing.T, n *Network, src, dst NodeID) []int32 {
	t.Helper()
	path, ok := oracleRoute(n, src, dst)
	if !ok {
		t.Fatalf("no oracle route %d -> %d", src, dst)
	}
	return path
}

func TestWarmLookupsDoNotAllocate(t *testing.T) {
	g := GenerateGrid(sim.NewKernel(), GridSpec{Routers: 33, HostsPerRouter: 4, Seed: 5})
	hosts := g.Hosts
	sink := 0.0
	sweep := func() {
		for _, src := range hosts[:16] {
			for _, dst := range hosts {
				sink += g.Net.AvailBandwidth(src, dst) + float64(g.Net.PathHops(src, dst))
			}
		}
	}
	sweep() // memoises one path per swept pair
	if st, want := g.Net.RouteStats(), uint64(16*(len(hosts)-1)); st.PathsMaterialised != want {
		t.Fatalf("measuring materialised %d paths, want one per swept pair, %d", st.PathsMaterialised, want)
	}
	if got := testing.AllocsPerRun(5, sweep); got != 0 {
		t.Fatalf("warm AvailBandwidth/PathHops allocate %v per sweep, want 0", got)
	}
	_ = sink
}
