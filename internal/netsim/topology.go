// Package netsim is a fluid-flow network simulator that stands in for the
// paper's physical testbed (Figure 6: five routers, eleven machines, 10 Mbps
// links).
//
// Data transfers are modeled as elastic flows that share link capacity
// max–min fairly, the standard fluid approximation of TCP behaviour.
// Background "competition" traffic (the paper's bandwidth-competition
// generator, Figure 7) is modeled as non-elastic load that reduces the
// capacity available to elastic flows. Small control messages (RPC,
// monitoring traffic) do not open flows; their delivery delay is computed
// from the available bandwidth along the path at send time — which is exactly
// what makes monitoring slow when the network is congested, a pathology the
// paper reports in §5.3.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"archadapt/internal/sim"
)

// NodeID identifies a host or router.
type NodeID int

// LinkID identifies a duplex link; each direction has independent capacity.
type LinkID int

// Dir selects a link direction.
type Dir int

// Link directions: Fwd is A→B, Rev is B→A.
const (
	Fwd Dir = 0
	Rev Dir = 1
)

// Node is a host or router in the topology.
type Node struct {
	ID     NodeID
	Name   string
	Router bool
}

// Link is a duplex link between two nodes. Capacity is in bits per second and
// applies to each direction independently. bg is the current background
// (competition) load per direction.
type Link struct {
	ID        LinkID
	A, B      NodeID
	Capacity  float64
	PropDelay float64 // seconds, per traversal
	bg        [2]float64
}

// Network is the simulated network. All methods must be called from kernel
// context (the simulation is single-threaded).
type Network struct {
	K      *sim.Kernel
	nodes  []*Node
	links  []*Link
	byName map[string]NodeID
	adj    [][]hopTo // indexed by NodeID, neighbours in Connect order

	// Routing state (see route), dropped on any topology change. A hop is
	// its resource index 2·link + dir; resource.from numbers the relay node
	// (degree ≥ 2) each hop leaves and hopTo.rel the relay an adjacency
	// entry reaches, -1 for other nodes. scr is the one search in progress.
	// paths memoises the hop slices route materialises, for the pairs that
	// carry traffic and the pairs measured alike, per source node and sorted
	// by destination.
	scr    search
	paths  [][]routeTo
	rstats RouteStats

	flows    []*Flow
	nextFlow uint64
	// freeFlows holds completed StartTransferArg flows for reuse (flows.go).
	freeFlows sim.Pool[Flow]

	// Incremental-solver state (see regions.go): per-(link,dir) resources
	// with their crossing-flow lists, the pending dirty set, batching depth,
	// the region-visit epoch, and reusable scratch buffers. compFlows/compRes
	// hold the solve's members grouped by connected component (each group's
	// flows sorted into global order), with compSpans marking the group
	// boundaries — the unit of filling. regionFlows merges the flows of a
	// solve that spans several components back into global order.
	res         []resource
	dirtyRes    []int32
	batching    int
	epoch       uint64
	regionFlows []*Flow
	stack       []int32
	compFlows   []*Flow
	compRes     []int32
	compSpans   []compSpan
	stats       SolveStats
	// owedSolve marks a lone finish (removeFlow) since the last solve: the
	// next solve counts one even if it finds no dirt.
	owedSolve bool

	// minFlowRate is this network's elastic-flow floor: MinFlowRate, except
	// where a test zeroes it so a fully loaded link stalls its flows.
	minFlowRate float64

	// Stats
	completedFlows uint64
	msgStats       MsgStats

	// Failure injection for control messages.
	dropRate float64
	dropRNG  *sim.Rand
}

// compSpan marks one connected component's slice of the comp scratch arrays.
type compSpan struct {
	flowLo, flowHi int32
	resLo, resHi   int32
}

// SolveStats counts solver work since the network was created.
type SolveStats struct {
	// Solves is the number of dirty-region solves.
	Solves uint64
	// Components is the total number of connected components filled.
	Components uint64
	// Lone counts the starts and finishes that took the lone-flow path
	// (regions.go): a start settled without a region solve, a removal that
	// dirtied nothing. Solves and Components count them as the general
	// path would.
	Lone uint64
}

// Stats returns a snapshot of the solver counters.
func (n *Network) Stats() SolveStats { return n.stats }

// RouteStats counts routing work since the network was created.
type RouteStats struct {
	// RelayVisits is the number of relay nodes the searches dequeued.
	RelayVisits uint64
	// Walks is the number of measurement lookups (every AvailBandwidth and
	// PathHops between distinct nodes), memo hits included.
	Walks uint64
	// PathsMaterialised is the number of hop slices built and memoised.
	PathsMaterialised uint64
}

// RouteStats returns a snapshot of the routing counters.
func (n *Network) RouteStats() RouteStats { return n.rstats }

type hopTo struct {
	to  NodeID
	ri  int32
	rel int32 // relay index of to, -1 for a node of degree < 2 (see indexRelays)
}

// routeTo is one memoised route out of a source node.
type routeTo struct {
	dst  NodeID
	hops []int32
}

// search is the one BFS over the relays in progress, kept warm for its root:
// a later search from the same root resumes where it stopped, since BFS order
// does not depend on where it stops. row holds the hop into each relay it has
// labelled, -1 elsewhere and at the root; order the root and then the relays
// in the order it labelled them, so a search from another root clears only
// those. order[head] is the relay being expanded, from its adjacency entry
// next. node maps a relay index to its node.
type search struct {
	root       int32 // -1 when none
	row        []int32
	order      []int32
	head, next int
	node       []int32
}

// MinFlowRate (bits/sec) is the floor rate for an elastic flow when
// competition has consumed a link entirely; the paper's Figure 10 bottoms
// out around 1e-4 Mbps (100 bps).
const MinFlowRate = 100

// New creates an empty network bound to the kernel.
func New(k *sim.Kernel) *Network {
	return &Network{
		K:           k,
		byName:      map[string]NodeID{},
		minFlowRate: MinFlowRate,
	}
}

// AddHost adds a non-router node.
func (n *Network) AddHost(name string) NodeID { return n.addNode(name, false) }

// AddRouter adds a router node.
func (n *Network) AddRouter(name string) NodeID { return n.addNode(name, true) }

func (n *Network) addNode(name string, router bool) NodeID {
	if _, dup := n.byName[name]; dup {
		// Invariant: node names are the builder's own, never input.
		// GenerateGrid numbers them (R<i>, R<i>H<j>) and the Figure 6
		// testbed spells them out, so a duplicate is a wiring bug.
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &Node{ID: id, Name: name, Router: router})
	n.adj = append(n.adj, nil)
	n.byName[name] = id
	n.dropRoutes()
	return id
}

// Node returns the node by id.
func (n *Network) Node(id NodeID) *Node { return n.nodes[int(id)] }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks returns the link count.
func (n *Network) NumLinks() int { return len(n.links) }

// Connect adds a duplex link; capacity in bits/sec per direction.
func (n *Network) Connect(a, b NodeID, capacity, propDelay float64) LinkID {
	// Invariants: no spec reaches a link's ends or capacity. GenerateGrid
	// links a host to its router, chain neighbours, and chord ends at least
	// two routers apart, all at the positive constants AccessBps and
	// BackboneBps; the testbed's links are literals. A finite capacity keeps
	// every fair share the solver compares finite (regions.go).
	if a == b {
		panic("netsim: self link")
	}
	if !(capacity > 0) || math.IsInf(capacity, 1) {
		panic("netsim: capacity must be positive and finite")
	}
	id := LinkID(len(n.links))
	n.links = append(n.links, &Link{ID: id, A: a, B: b, Capacity: capacity, PropDelay: propDelay})
	n.res = append(n.res, resource{}, resource{})
	n.adj[a] = append(n.adj[a], hopTo{to: b, ri: int32(id)*2 + int32(Fwd)})
	n.adj[b] = append(n.adj[b], hopTo{to: a, ri: int32(id)*2 + int32(Rev)})
	n.dropRoutes()
	return id
}

// dropRoutes invalidates the routing state after a topology change. Building
// a topology touches nothing: there is only something to drop once a lookup
// has run.
func (n *Network) dropRoutes() {
	n.scr, n.paths = search{}, nil
}

// Link returns the link by id.
func (n *Network) Link(id LinkID) *Link { return n.links[int(id)] }

// splice resolves src→dst (src ≠ dst) into its spliced end hops first and
// last, -1 where absent, and the relays ra, rb between which the route runs
// through the BFS tree rooted at ra; ra is -1 where the route has no
// relay-to-relay segment. Routes are
// min-hop, found by BFS exploring neighbours in Connect order, which makes
// the BFS tree rooted at src the route to every destination at once. Only
// relay nodes (degree ≥ 2) can be interior to a path and a degree-1 node
// changes nobody else's BFS parent, so trees span relays only: a degree-1
// source prepends its one link to its neighbour's tree, a degree-1
// destination appends its one link to the route to its neighbour.
func (n *Network) splice(src, dst NodeID) (first, last, ra, rb int32) {
	first, last = -1, -1
	a, b := src, dst
	if adj := n.adj[a]; len(adj) == 1 {
		first, a = adj[0].ri, adj[0].to
	}
	if adj := n.adj[b]; len(adj) == 1 && a != dst {
		last, b = adj[0].ri^1, adj[0].to
	}
	if a == b {
		return first, last, -1, -1
	}
	if n.scr.row == nil {
		n.indexRelays()
	}
	if ra, rb = n.relayOf(a), n.relayOf(b); ra < 0 || rb < 0 {
		n.noRoute(src, dst)
	}
	return first, last, ra, rb
}

// noRoute panics for an unroutable pair.
func (n *Network) noRoute(src, dst NodeID) {
	// Invariant: the topology is connected. A generated grid is (its chain
	// reaches every router, every host hangs off one), and no fault removes
	// a link: region and backbone failures load links to capacity, which
	// floors a path's bandwidth but keeps its route (the fleet's
	// TestFailuresNeverDisconnectTheGrid). Only a hand-wired network with
	// two components gets here (TestNoRoutePanics).
	panic(fmt.Sprintf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name))
}

// indexRelays numbers the relays into Link.from and hopTo.rel and sets up
// the search.
func (n *Network) indexRelays() {
	relays := 0
	for _, adj := range n.adj {
		if len(adj) >= 2 {
			relays++
		}
	}
	node := make([]int32, 0, relays)
	for v, adj := range n.adj {
		r := int32(-1)
		if len(adj) >= 2 {
			r, node = int32(len(node)), append(node, int32(v))
		}
		for _, ht := range adj {
			n.res[ht.ri].from = r
		}
	}
	for _, adj := range n.adj {
		for i, ht := range adj {
			adj[i].rel = n.res[ht.ri^1].from
		}
	}
	n.scr = search{root: -1, row: make([]int32, relays), order: make([]int32, 0, relays), node: node}
	for i := range n.scr.row {
		n.scr.row[i] = -1
	}
}

// relayOf returns v's relay index, -1 for a node of degree < 2.
func (n *Network) relayOf(v NodeID) int32 {
	if adj := n.adj[v]; len(adj) >= 2 {
		return n.res[adj[0].ri].from
	}
	return -1
}

// searchTo runs the search from relay root until relay want is labelled,
// reporting false where it runs dry first, and counts the relays it
// dequeues in RelayVisits. It resumes a search from root where it stopped;
// a search from another root is cleared, label by label, and started again
// from root.
func (n *Network) searchTo(root, want int32) bool {
	s := &n.scr
	if s.root != root {
		for _, r := range s.order {
			s.row[r] = -1
		}
		s.root, s.order, s.head, s.next = root, append(s.order[:0], root), 0, 0
	}
	if s.row[want] >= 0 {
		return true
	}
	row, order, head, next := s.row, s.order, s.head, s.next
	for ; head < len(order); head, next = head+1, 0 {
		if next == 0 {
			n.rstats.RelayVisits++
		}
		adj := n.adj[NodeID(s.node[order[head]])]
		for i := next; i < len(adj); i++ {
			ht := adj[i]
			if ht.rel < 0 || ht.rel == root || row[ht.rel] >= 0 {
				continue
			}
			row[ht.rel] = ht.ri
			order = append(order, ht.rel)
			if ht.rel == want {
				s.order, s.head, s.next = order, head, i+1
				return true
			}
		}
	}
	s.order, s.head, s.next = order, head, 0
	return false
}

// route returns the hop sequence src→dst as a slice, memoised per pair: the
// one routing lookup, for the callers that keep or replay the path (flows,
// control messages) and for the measurements (AvailBandwidth, PathHops)
// alike, so the memo holds the pairs that carry traffic or are
// measured. A warm lookup is an index by source and a binary search over the
// destinations that source has reached — a few for a host, the fleet's
// tenants for a shared collector — and hashes nothing.
func (n *Network) route(src, dst NodeID) []int32 {
	if src == dst {
		return nil
	}
	if n.paths == nil {
		n.paths = make([][]routeTo, len(n.nodes))
	}
	from := n.paths[src]
	lo := find(from, dst)
	if lo < len(from) && from[lo].dst == dst {
		return from[lo].hops
	}
	path := n.materialise(src, dst)
	n.rstats.PathsMaterialised++
	n.paths[src] = slices.Insert(from, lo, routeTo{dst, path})
	return path
}

// find returns where dst is, or would go, in a source's sorted memo.
func find(from []routeTo, dst NodeID) int {
	lo, hi := 0, len(from)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); from[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// materialise builds the hop slice src→dst (src ≠ dst) off the search,
// resumed where a search from the same root stopped. Where the search would
// start over from another root, a memoised route that differs only in a
// degree-1 end is spliced instead (see sibling).
func (n *Network) materialise(src, dst NodeID) []int32 {
	first, last, ra, rb := n.splice(src, dst)
	hops := 0
	if ra >= 0 {
		if path := n.sibling(src, dst, first, last, ra); path != nil {
			return path
		} else if !n.searchTo(ra, rb) {
			n.noRoute(src, dst)
		}
		// The search labels each relay with the hop into it, the root -1.
		for ri := n.scr.row[rb]; ri >= 0; ri = n.scr.row[n.res[ri].from] {
			hops++
		}
	}
	if first >= 0 {
		hops++
	}
	if last >= 0 {
		hops++
	}
	path := make([]int32, hops)
	if last >= 0 {
		hops--
		path[hops] = last
	}
	if ra >= 0 {
		for ri := n.scr.row[rb]; ri >= 0; ri = n.scr.row[n.res[ri].from] {
			hops--
			path[hops] = ri
		}
	}
	if first >= 0 {
		path[0] = first
	}
	return path
}

// sibling returns src→dst copied from a memoised route through the same
// tree segment: the route to dst from another degree-1 node on src's relay
// with first in place of its first hop, or the route from src to another
// degree-1 node on dst's relay with last in place of its last hop. It
// returns nil where the search is already rooted at ra, which answers
// without starting over, or where no such route is memoised.
func (n *Network) sibling(src, dst NodeID, first, last, ra int32) []int32 {
	if n.scr.root == ra {
		return nil
	}
	if first >= 0 {
		for _, ht := range n.adj[n.adj[src][0].to] {
			if from := n.paths[ht.to]; ht.to != src && len(n.adj[ht.to]) == 1 {
				if i := find(from, dst); i < len(from) && from[i].dst == dst {
					path := slices.Clone(from[i].hops)
					path[0] = first
					return path
				}
			}
		}
	}
	if last >= 0 {
		from := n.paths[src]
		for _, ht := range n.adj[n.adj[dst][0].to] {
			if ht.to != dst && len(n.adj[ht.to]) == 1 {
				if i := find(from, ht.to); i < len(from) && from[i].dst == ht.to {
					path := slices.Clone(from[i].hops)
					path[len(path)-1] = last
					return path
				}
			}
		}
	}
	return nil
}

// PathHops returns the number of hops on the route src→dst.
func (n *Network) PathHops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	n.rstats.Walks++
	return len(n.route(src, dst))
}

// SetBackground sets the background (competition) load on one direction of a
// link, in bits/sec, and reflows the elastic traffic in the link's region.
// Loads above capacity are clamped to capacity and a NaN load counts as none;
// setting the load it already has is a no-op.
func (n *Network) SetBackground(id LinkID, d Dir, load float64) {
	l := n.links[int(id)]
	if !(load > 0) { // negative, zero or NaN
		load = 0
	}
	if load > l.Capacity {
		load = l.Capacity
	}
	if l.bg[d] == load {
		return
	}
	l.bg[d] = load
	n.markDirty(int32(id)*2 + int32(d))
	n.solve()
}

// SetBackgroundBoth sets the same background load on both directions, with
// one reflow for the two.
func (n *Network) SetBackgroundBoth(id LinkID, load float64) {
	n.batching++
	n.SetBackground(id, Fwd, load)
	n.SetBackground(id, Rev, load)
	n.batching--
	n.solve()
}

// Background returns the background load on a direction of a link.
func (n *Network) Background(id LinkID, d Dir) float64 { return n.links[int(id)].bg[d] }

// availCap is the capacity available to elastic flows on (link, dir).
func (l *Link) availCap(d Dir) float64 {
	a := l.Capacity - l.bg[d]
	if a < 0 {
		a = 0
	}
	return a
}

// AvailBandwidth returns the bottleneck available bandwidth (capacity minus
// background load) along src→dst in bits/sec. This is what the Remos
// substitute predicts and what the bandwidth gauges report; it corresponds to
// the "Available Bandwidth" series of Figures 10 and 12.
func (n *Network) AvailBandwidth(src, dst NodeID) float64 {
	if src == dst {
		return 0
	}
	n.rstats.Walks++
	bw := math.Inf(1)
	for _, ri := range n.route(src, dst) {
		bw = min(bw, n.links[ri>>1].availCap(Dir(ri&1)))
	}
	return max(bw, n.minFlowRate)
}

// EndBandwidth bounds AvailBandwidth(src, dst) from above without resolving
// the route: it reads only the links every route between the two must cross,
// a degree-1 source's one link outbound and a degree-1 destination's one link
// inbound (+Inf where neither end has one). A negative src stands for any
// source, which bounds everything that can reach dst at once. The bound goes
// through the same min and floor as AvailBandwidth over a subset of its
// links, so it is never below it, bit for bit — what lets a caller ranking
// many sources against one destination skip the walk for those whose bound
// already loses.
func (n *Network) EndBandwidth(src, dst NodeID) float64 {
	if src == dst {
		return 0
	}
	bw := math.Inf(1)
	if src >= 0 && len(n.adj[src]) == 1 {
		ri := n.adj[src][0].ri
		bw = n.links[ri>>1].availCap(Dir(ri & 1))
	}
	if len(n.adj[dst]) == 1 {
		ri := n.adj[dst][0].ri ^ 1
		bw = min(bw, n.links[ri>>1].availCap(Dir(ri&1)))
	}
	return max(bw, n.minFlowRate)
}
