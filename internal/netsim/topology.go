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

	// Routing state (see ends), dropped on any topology change. A hop is its
	// resource index 2·link + dir. tail maps a hop to the index of the relay
	// node (degree ≥ 2) it leaves, -1 for other nodes. Row i of trees is the
	// BFS tree rooted at relay i, grown only as far as a lookup has needed:
	// each entry the hop into that relay, -1 where the BFS has not reached.
	// The root's own entry is the row's state: 0 unbuilt, -1 finished,
	// partial where the BFS stopped at the relay it was built for. paths
	// memoises the hop slices route materialises for the pairs that
	// carry traffic, per source node and sorted by destination; queue is BFS
	// scratch, as long as a tree.
	tail   []int32
	trees  []int32
	relays int32
	paths  [][]routeTo
	queue  []NodeID
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

	// globalReflow disables region partitioning and recomputes every flow on
	// every solve — the pre-incremental behaviour, retained as the reference
	// the solver-equivalence tests compare against (set through
	// ForceGlobalReflow in export_test.go).
	globalReflow bool

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
}

// Stats returns a snapshot of the solver counters.
func (n *Network) Stats() SolveStats { return n.stats }

// RouteStats counts routing work since the network was created.
type RouteStats struct {
	// TreesBuilt is the number of per-relay BFS trees built, each counted
	// the first time; RelayVisits the relay nodes every build, first or
	// again past a row's stop, dequeued.
	TreesBuilt, RelayVisits uint64
	// Walks is the number of tree lookups (every AvailBandwidth, PathHops
	// and materialisation between distinct nodes).
	Walks uint64
	// PathsMaterialised is the number of hop slices built and memoised.
	PathsMaterialised uint64
}

// RouteStats returns a snapshot of the routing counters.
func (n *Network) RouteStats() RouteStats { return n.rstats }

type hopTo struct {
	to NodeID
	ri int32
}

// routeTo is one memoised route out of a source node.
type routeTo struct {
	dst  NodeID
	hops []int32
}

// walk iterates the hops of one route in dst→src order: the spliced link of
// a degree-1 destination, the tree's hops from relay at back to the root, the
// spliced link of a degree-1 source (see ends).
type walk struct {
	tree, tail      []int32
	at, first, last int32 // first/last: hops, -1 when absent or consumed
}

// next returns the next hop, or -1 when the walk is done.
func (w *walk) next() int32 {
	if ri := w.last; ri >= 0 {
		w.last = -1
		return ri
	}
	if ri := w.tree[w.at]; ri >= 0 {
		w.at = w.tail[ri]
		return ri
	}
	ri := w.first
	w.first = -1
	return ri
}

// hops returns the walk's length, leaving it unconsumed.
func (w walk) hops() int {
	n := 0
	if w.first >= 0 {
		n++
	}
	if w.last >= 0 {
		n++
	}
	for ri := w.tree[w.at]; ri >= 0; ri = w.tree[w.tail[ri]] {
		n++
	}
	return n
}

// rootOnly is the tree walked when a path has no relay-to-relay segment.
var rootOnly = []int32{-1}

// partial is a tree row's root entry while its BFS has stopped early; 0 marks
// an unbuilt row and -1 a finished one. Every state is negative at the root,
// where walk.next and hops stop.
const partial = -2

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
	n.tail, n.trees, n.relays, n.paths = nil, nil, 0, nil
}

// Link returns the link by id.
func (n *Network) Link(id LinkID) *Link { return n.links[int(id)] }

// ends resolves src→dst (src ≠ dst) into a walk. Routes are min-hop, found
// by BFS exploring neighbours in Connect order, which makes the BFS tree
// rooted at src the route to every destination at once. Only relay nodes
// (degree ≥ 2) can be interior to a path and a degree-1 node changes nobody
// else's BFS parent, so trees span relays only: a degree-1 source prepends
// its one link to its neighbour's tree, a degree-1 destination appends its
// one link to the route to its neighbour.
func (n *Network) ends(src, dst NodeID) walk {
	n.rstats.Walks++
	w := walk{tree: rootOnly, first: -1, last: -1}
	a, b := src, dst
	if adj := n.adj[a]; len(adj) == 1 {
		w.first, a = adj[0].ri, adj[0].to
	}
	if adj := n.adj[b]; len(adj) == 1 && a != dst {
		w.last, b = adj[0].ri^1, adj[0].to
	}
	if a == b {
		return w
	}
	if n.tail == nil {
		n.indexRelays()
	}
	if ra, rb := n.relayOf(a, w.first^1), n.relayOf(b, w.last); ra >= 0 && rb >= 0 {
		w.tree, w.tail, w.at = n.trees[int(ra)*int(n.relays):][:n.relays], n.tail, rb
		if st := w.tree[ra]; st == 0 || st == partial && w.tree[rb] < 0 {
			n.buildTree(a, ra, rb, w.tree)
		}
		if w.tree[rb] >= 0 {
			return w
		}
	}
	// Invariant: the topology is connected. A generated grid is (its chain
	// reaches every router, every host hangs off one), and no fault removes
	// a link: region and backbone failures load links to capacity, which
	// floors a path's bandwidth but keeps its route (the fleet's
	// TestFailuresNeverDisconnectTheGrid). Only a hand-wired network with
	// two components gets here (TestNoRoutePanics).
	panic(fmt.Sprintf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name))
}

// indexRelays numbers the relays into tail and allocates all tree rows in one
// block: a row apiece would round up to its size class, 12 % over at 513.
func (n *Network) indexRelays() {
	n.tail = make([]int32, 2*len(n.links))
	for _, adj := range n.adj {
		r := int32(-1)
		if len(adj) >= 2 {
			r, n.relays = n.relays, n.relays+1
		}
		for _, ht := range adj {
			n.tail[ht.ri] = r
		}
	}
	n.trees = make([]int32, int(n.relays)*int(n.relays))
	n.queue = make([]NodeID, 0, n.relays)
}

// relayOf returns v's relay index, -1 for a node of degree < 2. out is a hop
// leaving v, which a spliced endpoint has at hand, or negative.
func (n *Network) relayOf(v NodeID, out int32) int32 {
	if out >= 0 {
		return n.tail[out]
	}
	if adj := n.adj[v]; len(adj) >= 2 {
		return n.tail[adj[0].ri]
	}
	return -1
}

// buildTree fills tree, relay ri's row, with the BFS from its node root over
// the relay nodes, stopping as soon as relay want is labelled. BFS order does
// not depend on where the search stops, so a row stopped early holds a prefix
// of the finished row's entries, hop for hop, and a later lookup past it
// builds the row again from the root. A search that runs dry without
// labelling want leaves the row finished.
func (n *Network) buildTree(root NodeID, ri, want int32, tree []int32) {
	if tree[ri] == 0 {
		n.rstats.TreesBuilt++
	}
	for i := range tree {
		tree[i] = -1
	}
	queue := append(n.queue[:0], root)
	for head := 0; head < len(queue); head++ {
		for _, ht := range n.adj[queue[head]] {
			ti := n.tail[ht.ri^1]
			if ti < 0 || ti == ri || tree[ti] >= 0 {
				continue
			}
			tree[ti] = ht.ri
			if ti == want {
				tree[ri] = partial
				n.rstats.RelayVisits += uint64(head + 1)
				return
			}
			queue = append(queue, ht.to)
		}
	}
	n.rstats.RelayVisits += uint64(len(queue))
}

// route returns the hop sequence src→dst as a slice, memoised per pair. It
// is for the callers that keep or replay the path (flows, control messages);
// measurements walk the tree instead (AvailBandwidth, PathHops), so the
// memo grows with the pairs that carry traffic, not with the pairs asked
// about. A warm lookup is an index by source and a binary search over the
// destinations that source has sent to — a few for a host, the fleet's
// tenants for a shared collector — and hashes nothing.
func (n *Network) route(src, dst NodeID) []int32 {
	if src == dst {
		return nil
	}
	if n.paths == nil {
		n.paths = make([][]routeTo, len(n.nodes))
	}
	from := n.paths[src]
	lo, hi := 0, len(from)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); from[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(from) && from[lo].dst == dst {
		return from[lo].hops
	}
	w := n.ends(src, dst)
	path := make([]int32, w.hops())
	for i := len(path) - 1; i >= 0; i-- {
		path[i] = w.next()
	}
	n.rstats.PathsMaterialised++
	n.paths[src] = slices.Insert(from, lo, routeTo{dst, path})
	return path
}

// PathHops returns the number of hops on the route src→dst.
func (n *Network) PathHops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	return n.ends(src, dst).hops()
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

// SetBackgroundBoth sets the same background load on both directions.
func (n *Network) SetBackgroundBoth(id LinkID, load float64) {
	l := n.links[int(id)]
	if !(load > 0) { // negative, zero or NaN
		load = 0
	}
	if load > l.Capacity {
		load = l.Capacity
	}
	if l.bg[Fwd] == load && l.bg[Rev] == load {
		return
	}
	l.bg[Fwd] = load
	l.bg[Rev] = load
	n.markDirty(int32(id) * 2)
	n.markDirty(int32(id)*2 + 1)
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
	w := n.ends(src, dst)
	bw := math.Inf(1)
	for ri := w.next(); ri >= 0; ri = w.next() {
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
