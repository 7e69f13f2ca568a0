package netsim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"archadapt/internal/sim"
)

// The incremental solver must be observationally equivalent to the retained
// global one. The driver below builds two identical random networks on one
// kernel — one incremental, one with globalReflow forced — and pushes the
// same random event sequence (starts, cancels, background changes)
// through both, comparing flow rates after every step against each other and
// against ReferenceRates, the retained PR 1 algorithm.

type twinNets struct {
	k         *sim.Kernel
	inc, glob *Network
	nodes     []NodeID
	links     []LinkID
	caps      []float64
	live      map[uint64][2]*Flow // id → (incremental, global) handles
}

func buildTwins(rng *sim.Rand) *twinNets {
	tw := &twinNets{k: sim.NewKernel(), live: map[uint64][2]*Flow{}}
	tw.inc = New(tw.k)
	tw.glob = New(tw.k)
	tw.glob.globalReflow = true
	nHosts := 3 + rng.Intn(6)
	for i := 0; i < nHosts; i++ {
		tw.nodes = append(tw.nodes, tw.inc.AddHost(string(rune('a'+i))))
		tw.glob.AddHost(string(rune('a' + i)))
	}
	connect := func(i, j int, c float64) {
		tw.links = append(tw.links, tw.inc.Connect(tw.nodes[i], tw.nodes[j], c, 1e-3))
		tw.glob.Connect(tw.nodes[i], tw.nodes[j], c, 1e-3)
		tw.caps = append(tw.caps, c)
	}
	// Spanning chain plus random extra links: several disjoint-looking
	// regions that merge and split as flows come and go.
	for i := 1; i < nHosts; i++ {
		connect(i-1, i, 1e6*float64(1+rng.Intn(10)))
	}
	for e := 0; e < rng.Intn(5); e++ {
		i, j := rng.Intn(nHosts), rng.Intn(nHosts)
		if i == j {
			continue
		}
		if linked(tw.inc, tw.nodes[i], tw.nodes[j]) {
			continue
		}
		connect(i, j, 1e6*float64(1+rng.Intn(10)))
	}
	return tw
}

// liveIDs returns the ids of in-flight flows in deterministic order.
func (tw *twinNets) liveIDs() []uint64 {
	ids := make([]uint64, 0, len(tw.live))
	for id := range tw.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// check compares the two networks' live-flow rates against each other and
// the incremental network against the retained naive global solver.
func (tw *twinNets) check(t testingT) bool {
	if tw.inc.ActiveFlows() != tw.glob.ActiveFlows() ||
		tw.inc.CompletedFlows() != tw.glob.CompletedFlows() {
		t.Logf("flow accounting diverged: active %d vs %d, completed %d vs %d",
			tw.inc.ActiveFlows(), tw.glob.ActiveFlows(),
			tw.inc.CompletedFlows(), tw.glob.CompletedFlows())
		return false
	}
	ref := tw.inc.ReferenceRates()
	for _, id := range tw.liveIDs() {
		pair := tw.live[id]
		fi, fg := pair[0], pair[1]
		if !relClose(fi.Rate(), fg.Rate(), 1e-9) {
			t.Logf("flow %d: incremental rate %v vs global %v", id, fi.Rate(), fg.Rate())
			return false
		}
		if fi.index >= 0 {
			if want, ok := ref[fi]; !ok || !relClose(fi.Rate(), want, 1e-9) {
				t.Logf("flow %d: incremental rate %v vs reference %v", id, fi.Rate(), want)
				return false
			}
		}
	}
	return true
}

type testingT interface{ Logf(string, ...any) }

func solverEquivalence(t testingT, seed uint64) bool {
	rng := sim.NewRand(seed)
	tw := buildTwins(rng)
	ok := true
	at := 0.0
	nHosts := len(tw.nodes)
	for step := 0; step < 40; step++ {
		at += rng.Float64() * 0.4
		switch rng.Intn(4) {
		case 0, 1: // start a transfer (sized so some complete mid-run)
			s, d := rng.Intn(nHosts), rng.Intn(nHosts)
			bits := 1e4 * float64(1+rng.Intn(500))
			tw.k.At(at, func() {
				var pair [2]*Flow
				retire := func(f *Flow) { delete(tw.live, f.ID()) }
				pair[0] = tw.inc.StartTransfer(tw.nodes[s], tw.nodes[d], bits, "eq", retire)
				pair[1] = tw.glob.StartTransfer(tw.nodes[s], tw.nodes[d], bits, "eq", retire)
				if s != d {
					tw.live[pair[0].ID()] = pair
				}
			})
		case 2: // cancel a random in-flight transfer
			pick := rng.Intn(64)
			tw.k.At(at, func() {
				ids := tw.liveIDs()
				if len(ids) == 0 {
					return
				}
				id := ids[pick%len(ids)]
				pair := tw.live[id]
				delete(tw.live, id)
				pair[0].Cancel()
				pair[1].Cancel()
			})
		case 3: // change background load on a random link/direction
			li := rng.Intn(len(tw.links))
			load := tw.caps[li] * rng.Float64()
			both := rng.Intn(2) == 0
			dir := Dir(rng.Intn(2))
			tw.k.At(at, func() {
				if both {
					tw.inc.SetBackgroundBoth(tw.links[li], load)
					tw.glob.SetBackgroundBoth(tw.links[li], load)
				} else {
					tw.inc.SetBackground(tw.links[li], dir, load)
					tw.glob.SetBackground(tw.links[li], dir, load)
				}
			})
		}
		tw.k.At(at, func() {
			if !tw.check(t) {
				ok = false
			}
		})
	}
	tw.k.RunAll(0)
	return ok && tw.check(t)
}

func TestIncrementalSolverEquivalence(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool { return solverEquivalence(t, seed) },
		&quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSolverEquivalenceLong drives one long sequence so in-flight
// completions, stalls (rate floor) and recoveries all interleave.
func TestIncrementalSolverEquivalenceLong(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed ^ 0x9e3779b97f4a7c15)
		tw := buildTwins(rng)
		at := 0.0
		for step := 0; step < 300; step++ {
			at += rng.Float64() * 0.2
			s, d := rng.Intn(len(tw.nodes)), rng.Intn(len(tw.nodes))
			switch rng.Intn(3) {
			case 0:
				bits := 1e3 * float64(1+rng.Intn(2000))
				tw.k.At(at, func() {
					var pair [2]*Flow
					retire := func(f *Flow) { delete(tw.live, f.ID()) }
					pair[0] = tw.inc.StartTransfer(tw.nodes[s], tw.nodes[d], bits, "eq", retire)
					pair[1] = tw.glob.StartTransfer(tw.nodes[s], tw.nodes[d], bits, "eq", retire)
					if s != d {
						tw.live[pair[0].ID()] = pair
					}
				})
			case 1:
				li := rng.Intn(len(tw.links))
				// Occasionally saturate completely to exercise the floor.
				load := tw.caps[li]
				if rng.Intn(3) > 0 {
					load *= rng.Float64()
				}
				tw.k.At(at, func() {
					tw.inc.SetBackgroundBoth(tw.links[li], load)
					tw.glob.SetBackgroundBoth(tw.links[li], load)
				})
			case 2:
				pick := rng.Intn(64)
				tw.k.At(at, func() {
					ids := tw.liveIDs()
					if len(ids) == 0 {
						return
					}
					id := ids[pick%len(ids)]
					pair := tw.live[id]
					delete(tw.live, id)
					pair[0].Cancel()
					pair[1].Cancel()
				})
			}
		}
		checkAt := 0.0
		for i := 0; i < 30; i++ {
			checkAt += 2.1
			tw.k.At(checkAt, func() {
				if !tw.check(t) {
					t.Fatalf("seed %d: solvers diverged at t=%.3f", seed, tw.k.Now())
				}
			})
		}
		tw.k.RunAll(0)
		if !tw.check(t) {
			t.Fatalf("seed %d: solvers diverged at end", seed)
		}
	}
}

// TestBatchSolveComponentStats pins the component accounting: a batch that
// dirties two disjoint link groups is one solve with two components.
func TestBatchSolveComponentStats(t *testing.T) {
	n := New(sim.NewKernel())
	a, b := n.AddHost("a"), n.AddHost("b")
	c, d := n.AddHost("c"), n.AddHost("d")
	l1 := n.Connect(a, b, 1e6, 1e-3)
	l2 := n.Connect(c, d, 1e6, 1e-3)
	n.StartTransfer(a, b, 1e5, "s", nil)
	n.StartTransfer(c, d, 1e5, "s", nil)
	before := n.Stats()
	n.Batch(func() {
		n.SetBackgroundBoth(l1, 5e5)
		n.SetBackgroundBoth(l2, 2.5e5)
	})
	st := n.Stats()
	if got := st.Solves - before.Solves; got != 1 {
		t.Fatalf("batch ran %d solves, want 1", got)
	}
	if got := st.Components - before.Components; got != 2 {
		t.Fatalf("batch filled %d components, want 2", got)
	}
}

// TestFillIgnoresResourceOrder: fillComponent reads a component's resources
// only for the minimum fair share, so the solver leaves them in discovery
// order. Seeded random networks carry elastic transfers and demand-capped
// class flows on shared links, under background load that saturates some
// links (the rate floor) and on capacities from a small set (exact ties among
// shares). Every component the solver collects fills to the same rate bits
// with its resources sorted, reversed and in eight shuffled orders, and the
// sorted fill matches the rates the solve itself assigned.
func TestFillIgnoresResourceOrder(t *testing.T) {
	var shared, capped, floored int // what the seeds reached, checked at the end
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		n := New(sim.NewKernel())
		var hosts []NodeID
		for i := 0; i < 4+rng.Intn(6); i++ {
			hosts = append(hosts, n.AddHost(string(rune('a'+i))))
		}
		var links []LinkID
		connect := func(i, j int) {
			links = append(links, n.Connect(hosts[i], hosts[j], 1e6*float64(int(1)<<rng.Intn(3)), 1e-3))
		}
		for i := 1; i < len(hosts); i++ {
			connect(i-1, i)
		}
		for e := 0; e < rng.Intn(6); e++ {
			i, j := rng.Intn(len(hosts)), rng.Intn(len(hosts))
			if i != j && !linked(n, hosts[i], hosts[j]) {
				connect(i, j)
			}
		}
		n.Batch(func() {
			for i := 0; i < 6+rng.Intn(24); i++ {
				s, d := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
				if rng.Intn(3) == 0 {
					n.StartClassFlow(s, d, 2e6*rng.Float64(), "class")
				} else {
					n.StartTransfer(s, d, 1e6, "bulk", nil)
				}
			}
			for _, l := range links {
				switch rng.Intn(4) {
				case 0:
					n.SetBackground(l, Dir(rng.Intn(2)), n.Link(l).Capacity)
				case 1:
					n.SetBackgroundBoth(l, n.Link(l).Capacity*rng.Float64())
				}
			}
		})
		solved := make(map[*Flow]float64, len(n.flows))
		for _, f := range n.flows {
			solved[f] = f.rate
		}

		for ri := range n.res {
			n.markDirty(int32(ri))
		}
		n.collectRegion()
		for c, sp := range n.compSpans {
			flows := n.compFlows[sp.flowLo:sp.flowHi]
			fill := func(order []int32) []uint64 {
				for _, ri := range order {
					n.res[ri].avail = n.links[ri>>1].availCap(Dir(ri & 1))
					n.res[ri].count = int32(len(n.res[ri].flows))
				}
				n.epoch++
				n.fillComponent(flows, order, n.epoch)
				bits := make([]uint64, len(flows))
				for i, f := range flows {
					bits[i] = math.Float64bits(f.rate)
				}
				return bits
			}
			order := slices.Clone(n.compRes[sp.resLo:sp.resHi])
			slices.Sort(order)
			want := fill(order)
			for _, f := range flows {
				if f.rate != solved[f] {
					t.Fatalf("seed %d component %d: flow %d fills to %v sorted, the solve gave %v", seed, c, f.id, f.rate, solved[f])
				}
				if f.class && f.rate == f.demand {
					capped++
				}
				if f.rate == n.minFlowRate {
					floored++
				}
			}
			if len(flows) > 1 {
				shared++
			}
			slices.Reverse(order)
			orders := [][]int32{slices.Clone(order)}
			for range 8 {
				for i := len(order) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
				orders = append(orders, slices.Clone(order))
			}
			for _, o := range orders {
				if got := fill(o); !slices.Equal(got, want) {
					t.Fatalf("seed %d component %d: resources in order %v fill to rate bits %x, sorted to %x", seed, c, o, got, want)
				}
			}
		}
	}
	t.Logf("%d components shared by several flows, %d class flows held to demand, %d flows on the floor", shared, capped, floored)
	if shared == 0 || capped == 0 || floored == 0 {
		t.Fatal("the seeds no longer reach shared components, demand caps and the rate floor")
	}
}
