package netsim

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"archadapt/internal/sim"
)

// The incremental solver must agree with ReferenceRates, the retained global
// algorithm. The driver below builds a random network and pushes a random
// event sequence (starts, cancels, background changes) through it, comparing
// every live flow's rate against the reference after every step.

type eqNet struct {
	k     *sim.Kernel
	n     *Network
	nodes []NodeID
	links []LinkID
	caps  []float64
	live  map[uint64]*Flow // id → in-flight handle
}

func buildEqNet(rng *sim.Rand) *eqNet {
	k := sim.NewKernel()
	en := &eqNet{k: k, n: New(k), live: map[uint64]*Flow{}}
	nHosts := 3 + rng.Intn(6)
	for i := 0; i < nHosts; i++ {
		en.nodes = append(en.nodes, en.n.AddHost(string(rune('a'+i))))
	}
	connect := func(i, j int, c float64) {
		en.links = append(en.links, en.n.Connect(en.nodes[i], en.nodes[j], c, 1e-3))
		en.caps = append(en.caps, c)
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
		if linked(en.n, en.nodes[i], en.nodes[j]) {
			continue
		}
		connect(i, j, 1e6*float64(1+rng.Intn(10)))
	}
	return en
}

// start begins a transfer and tracks it until it completes.
func (en *eqNet) start(s, d int, bits float64) {
	f := en.n.StartTransfer(en.nodes[s], en.nodes[d], bits, "eq", func(f *Flow) { delete(en.live, f.ID()) })
	if s != d {
		en.live[f.ID()] = f
	}
}

// cancel cancels the in-flight transfer pick selects, if any.
func (en *eqNet) cancel(pick int) {
	ids := slices.Sorted(maps.Keys(en.live))
	if len(ids) == 0 {
		return
	}
	id := ids[pick%len(ids)]
	en.live[id].Cancel()
	delete(en.live, id)
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// check compares every live flow's incremental rate against the retained
// global solver.
func (en *eqNet) check(t testingT) bool {
	if en.n.ActiveFlows() != len(en.live) {
		t.Logf("flow accounting diverged: %d active, %d tracked", en.n.ActiveFlows(), len(en.live))
		return false
	}
	ref := en.n.ReferenceRates()
	for _, id := range slices.Sorted(maps.Keys(en.live)) {
		f := en.live[id]
		if want, ok := ref[f]; !ok || !relClose(f.Rate(), want, 1e-9) {
			t.Logf("flow %d: incremental rate %v vs reference %v", id, f.Rate(), want)
			return false
		}
	}
	return true
}

type testingT interface{ Logf(string, ...any) }

func solverEquivalence(t testingT, seed uint64) bool {
	rng := sim.NewRand(seed)
	en := buildEqNet(rng)
	ok := true
	at := 0.0
	nHosts := len(en.nodes)
	for step := 0; step < 40; step++ {
		at += rng.Float64() * 0.4
		switch rng.Intn(4) {
		case 0, 1: // start a transfer (sized so some complete mid-run)
			s, d := rng.Intn(nHosts), rng.Intn(nHosts)
			bits := 1e4 * float64(1+rng.Intn(500))
			en.k.At(at, func() { en.start(s, d, bits) })
		case 2: // cancel a random in-flight transfer
			pick := rng.Intn(64)
			en.k.At(at, func() { en.cancel(pick) })
		case 3: // change background load on a random link/direction
			li := rng.Intn(len(en.links))
			load := en.caps[li] * rng.Float64()
			both := rng.Intn(2) == 0
			dir := Dir(rng.Intn(2))
			en.k.At(at, func() {
				if both {
					en.n.SetBackgroundBoth(en.links[li], load)
				} else {
					en.n.SetBackground(en.links[li], dir, load)
				}
			})
		}
		en.k.At(at, func() {
			if !en.check(t) {
				ok = false
			}
		})
	}
	en.k.RunAll(0)
	return ok && en.check(t)
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
		en := buildEqNet(rng)
		at := 0.0
		for step := 0; step < 300; step++ {
			at += rng.Float64() * 0.2
			s, d := rng.Intn(len(en.nodes)), rng.Intn(len(en.nodes))
			switch rng.Intn(3) {
			case 0:
				bits := 1e3 * float64(1+rng.Intn(2000))
				en.k.At(at, func() { en.start(s, d, bits) })
			case 1:
				li := rng.Intn(len(en.links))
				// Occasionally saturate completely to exercise the floor.
				load := en.caps[li]
				if rng.Intn(3) > 0 {
					load *= rng.Float64()
				}
				en.k.At(at, func() { en.n.SetBackgroundBoth(en.links[li], load) })
			case 2:
				pick := rng.Intn(64)
				en.k.At(at, func() { en.cancel(pick) })
			}
		}
		checkAt := 0.0
		for i := 0; i < 30; i++ {
			checkAt += 2.1
			en.k.At(checkAt, func() {
				if !en.check(t) {
					t.Fatalf("seed %d: solvers diverged at t=%.3f", seed, en.k.Now())
				}
			})
		}
		en.k.RunAll(0)
		if !en.check(t) {
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
