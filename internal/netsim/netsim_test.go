package netsim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"archadapt/internal/sim"
)

// line builds a -- r -- b with 10 Mbps links.
func line(t *testing.T) (*sim.Kernel, *Network, NodeID, NodeID, LinkID, LinkID) {
	t.Helper()
	k := sim.NewKernel()
	n := New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	l1 := n.Connect(a, r, 10e6, 1e-3)
	l2 := n.Connect(r, b, 10e6, 1e-3)
	return k, n, a, b, l1, l2
}

func TestSingleTransferTime(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	doneAt := -1.0
	n.StartTransfer(a, b, 10e6, "x", func(*Flow) { doneAt = k.Now() })
	k.RunAll(0)
	// 10 Mbit over a 10 Mbps path: 1 second.
	if math.Abs(doneAt-1.0) > 1e-6 {
		t.Fatalf("transfer finished at %v, want 1.0", doneAt)
	}
}

func TestTwoTransfersShareFairly(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	var done []float64
	for i := 0; i < 2; i++ {
		n.StartTransfer(a, b, 10e6, "x", func(*Flow) { done = append(done, k.Now()) })
	}
	k.RunAll(0)
	// Two equal flows share 10 Mbps: each gets 5 Mbps, both finish at 2 s.
	if len(done) != 2 {
		t.Fatalf("completed %d", len(done))
	}
	for _, d := range done {
		if math.Abs(d-2.0) > 1e-6 {
			t.Fatalf("finish times %v, want both 2.0", done)
		}
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	var bigDone float64
	n.StartTransfer(a, b, 10e6, "big", func(*Flow) { bigDone = k.Now() })
	n.StartTransfer(a, b, 2.5e6, "small", nil)
	k.RunAll(0)
	// Both share 5 Mbps until small (2.5 Mbit) completes at t=0.5 having used
	// 2.5 Mbit; big then has 7.5 Mbit left at 10 Mbps: 0.75 s more = 1.25 s.
	if math.Abs(bigDone-1.25) > 1e-6 {
		t.Fatalf("big finished at %v, want 1.25", bigDone)
	}
}

func TestBackgroundLoadSlowsTransfer(t *testing.T) {
	k, n, a, b, l1, _ := line(t)
	n.SetBackgroundBoth(l1, 8e6) // 2 Mbps left
	var done float64
	n.StartTransfer(a, b, 2e6, "x", func(*Flow) { done = k.Now() })
	k.RunAll(0)
	if math.Abs(done-1.0) > 1e-6 {
		t.Fatalf("done at %v, want 1.0 (2 Mbit over 2 Mbps)", done)
	}
}

func TestBackgroundChangeMidFlight(t *testing.T) {
	k, n, a, b, l1, _ := line(t)
	var done float64
	n.StartTransfer(a, b, 10e6, "x", func(*Flow) { done = k.Now() })
	// At t=0.5 (5 Mbit sent), competition takes 5 Mbps; remaining 5 Mbit at
	// 5 Mbps takes 1 s more: total 1.5 s.
	k.At(0.5, func() { n.SetBackgroundBoth(l1, 5e6) })
	k.RunAll(0)
	if math.Abs(done-1.5) > 1e-6 {
		t.Fatalf("done at %v, want 1.5", done)
	}
}

func TestDirectionalBackground(t *testing.T) {
	k, n, a, b, l1, _ := line(t)
	// Crush only the reverse direction (b→a); a→b unaffected.
	n.SetBackground(l1, Rev, 10e6)
	var fwdDone, revDone float64
	n.StartTransfer(a, b, 10e6, "fwd", func(*Flow) { fwdDone = k.Now() })
	n.StartTransfer(b, a, 1e4, "rev", func(*Flow) { revDone = k.Now() })
	k.RunAll(0)
	if math.Abs(fwdDone-1.0) > 1e-6 {
		t.Fatalf("fwd done at %v, want 1.0", fwdDone)
	}
	// rev crawls at MinFlowRate (100 bps): 1e4 bits -> 100 s.
	if math.Abs(revDone-100.0) > 1e-3 {
		t.Fatalf("rev done at %v, want ~100", revDone)
	}
}

// The fair shares the solver takes a minimum over stay finite whatever a
// caller passes: a NaN background load or class demand counts as zero, and
// Connect refuses a capacity that is not positive and finite. (A NaN share
// would make the minimum depend on the order resources are scanned in.)
func TestNonFiniteInputsKeepSharesFinite(t *testing.T) {
	k, n, a, b, l1, l2 := line(t)
	n.SetBackground(l1, Fwd, math.NaN())
	n.SetBackgroundBoth(l2, math.NaN())
	class := n.StartClassFlow(b, a, math.NaN(), "class")
	f := n.StartTransfer(a, b, 10e6, "x", nil)
	if bg := n.Background(l1, Fwd) + n.Background(l2, Rev); bg != 0 {
		t.Fatalf("NaN background reads as %v, want 0", bg)
	}
	if class.Demand() != 0 || class.Rate() != 0 {
		t.Fatalf("NaN demand: demand %v, rate %v, want 0 and 0", class.Demand(), class.Rate())
	}
	class.SetDemand(math.NaN())
	if f.Rate() != 10e6 || class.Demand() != 0 {
		t.Fatalf("rates after NaN inputs: transfer %v, class demand %v", f.Rate(), class.Demand())
	}
	k.RunAll(0)
	for _, capacity := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		msg := panicText(func() { n.Connect(a, b, capacity, 1e-3) })
		if msg != "netsim: capacity must be positive and finite" {
			t.Fatalf("Connect with capacity %v panicked with %q", capacity, msg)
		}
	}
}

func TestAvailBandwidth(t *testing.T) {
	_, n, a, b, l1, l2 := line(t)
	if got := n.AvailBandwidth(a, b); math.Abs(got-10e6) > 1 {
		t.Fatalf("avail=%v, want 10e6", got)
	}
	n.SetBackgroundBoth(l1, 4e6)
	n.SetBackgroundBoth(l2, 7e6)
	if got := n.AvailBandwidth(a, b); math.Abs(got-3e6) > 1 {
		t.Fatalf("avail=%v, want bottleneck 3e6", got)
	}
	n.SetBackgroundBoth(l2, 10e6)
	if got := n.AvailBandwidth(a, b); got != n.minFlowRate {
		t.Fatalf("avail=%v, want floor %v", got, n.minFlowRate)
	}
}

func TestSameHostTransfer(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddHost("a")
	var done float64
	n.StartTransfer(a, a, 1e9, "local", func(*Flow) { done = k.Now() })
	k.RunAll(0)
	if done <= 0 || done > 1e-3 {
		t.Fatalf("local transfer took %v, want sub-millisecond", done)
	}
}

func TestMessageDelayGrowsUnderCongestion(t *testing.T) {
	_, n, a, b, l1, _ := line(t)
	fast := n.messageDelay(a, b, 8000, BestEffort)
	n.SetBackgroundBoth(l1, 10e6)
	slow := n.messageDelay(a, b, 8000, BestEffort)
	if slow < 100*fast {
		t.Fatalf("congested delay %v not much larger than idle %v", slow, fast)
	}
	prio := n.messageDelay(a, b, 8000, Prioritized)
	if math.Abs(prio-fast) > 1e-6 {
		t.Fatalf("prioritized delay %v should match idle %v", prio, fast)
	}
}

func TestMessageDelivery(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	got := -1.0
	d := n.SendMessage(a, b, 8000, BestEffort, func() { got = k.Now() })
	k.RunAll(0)
	if math.Abs(got-d) > 1e-9 {
		t.Fatalf("delivered at %v, reported delay %v", got, d)
	}
	st := n.MessageStats()
	if st.Sent != 1 || st.Bits != 8000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMessageDrop(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	n.SetDrop(1.0, sim.NewRand(1))
	delivered := false
	n.SendMessage(a, b, 100, BestEffort, func() { delivered = true })
	k.RunAll(0)
	if delivered {
		t.Fatal("message delivered despite 100% drop")
	}
	if n.MessageStats().Dropped != 1 {
		t.Fatalf("dropped=%d", n.MessageStats().Dropped)
	}
}

func TestCancelTransfer(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	called := false
	f := n.StartTransfer(a, b, 10e6, "x", func(*Flow) { called = true })
	k.At(0.5, func() { f.Cancel() })
	k.RunAll(0)
	if called {
		t.Fatal("cancelled flow invoked done")
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("flows remain: %d", n.ActiveFlows())
	}
}

func TestRoutingPrefersShortPath(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	// a - r1 - r2 - b  plus direct r1 - b shortcut.
	a := n.AddHost("a")
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	b := n.AddHost("b")
	n.Connect(a, r1, 10e6, 1e-3)
	n.Connect(r1, r2, 10e6, 1e-3)
	n.Connect(r2, b, 10e6, 1e-3)
	n.Connect(r1, b, 10e6, 1e-3)
	if hops := n.PathHops(a, b); hops != 2 {
		t.Fatalf("path hops=%d, want 2 via shortcut", hops)
	}
}

func TestNoRoutePanics(t *testing.T) {
	k := sim.NewKernel()
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	n.Connect(b, c, 10e6, 1e-3)
	for _, tc := range []struct {
		name string
		fn   func()
		want string
	}{
		{"isolated source", func() { n.StartTransfer(a, b, 1, "x", nil) }, "netsim: no route a -> b"},
		{"isolated destination", func() { n.AvailBandwidth(c, a) }, "netsim: no route c -> a"},
		{"two-node component asked about a third", func() { n.PathHops(b, a) }, "netsim: no route b -> a"},
	} {
		if got := panicText(tc.fn); got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
}

// buildRandomNet builds a connected random topology with f flows, then
// checks max–min invariants.
func maxMinInvariants(seed uint64) bool {
	rng := sim.NewRand(seed)
	k := sim.NewKernel()
	n := New(k)
	nHosts := 3 + rng.Intn(5)
	nodes := make([]NodeID, 0, nHosts)
	for i := 0; i < nHosts; i++ {
		nodes = append(nodes, n.AddHost(string(rune('a'+i))))
	}
	// Spanning chain + random extra links.
	caps := map[LinkID]float64{}
	for i := 1; i < nHosts; i++ {
		c := 1e6 * float64(1+rng.Intn(10))
		id := n.Connect(nodes[i-1], nodes[i], c, 1e-3)
		caps[id] = c
	}
	for e := 0; e < rng.Intn(4); e++ {
		i, j := rng.Intn(nHosts), rng.Intn(nHosts)
		if i == j {
			continue
		}
		if linked(n, nodes[i], nodes[j]) {
			continue
		}
		c := 1e6 * float64(1+rng.Intn(10))
		id := n.Connect(nodes[i], nodes[j], c, 1e-3)
		caps[id] = c
	}
	// Random background loads.
	for id := range caps {
		if rng.Float64() < 0.3 {
			n.SetBackgroundBoth(id, caps[id]*rng.Float64())
		}
	}
	// Random flows.
	nFlows := 1 + rng.Intn(12)
	flows := make([]*Flow, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		s, d := rng.Intn(nHosts), rng.Intn(nHosts)
		if s == d {
			continue
		}
		flows = append(flows, n.StartTransfer(nodes[s], nodes[d], 1e12, "p", nil))
	}
	if len(flows) == 0 {
		return true
	}
	// Invariant 1: every flow has a positive rate.
	for _, f := range flows {
		if f.Rate() <= 0 {
			return false
		}
	}
	// Invariant 2: no (link,dir) oversubscribed beyond avail + per-flow floor
	// slack (floor rates may legitimately exceed a saturated link's avail).
	sum := map[int32]float64{}
	cnt := map[int32]int{}
	for _, f := range flows {
		for _, ri := range f.path {
			sum[ri] += f.Rate()
			cnt[ri]++
		}
	}
	for kk, s := range sum {
		avail := n.Link(LinkID(kk >> 1)).availCap(Dir(kk & 1))
		slack := float64(cnt[kk]) * n.minFlowRate
		if s > avail+slack+1e-6 {
			return false
		}
	}
	// Invariant 3 (bottleneck condition): each flow crosses some saturated
	// link where its rate is >= every other flow's rate on that link.
	for _, f := range flows {
		ok := false
		for _, kk := range f.path {
			avail := n.Link(LinkID(kk >> 1)).availCap(Dir(kk & 1))
			saturated := sum[kk] >= avail-1e-6 || avail < n.minFlowRate*float64(cnt[kk])
			if !saturated {
				continue
			}
			isMax := true
			for _, g := range flows {
				for _, hh := range g.path {
					if hh == kk && g.Rate() > f.Rate()+1e-6 {
						isMax = false
					}
				}
			}
			if isMax {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestMaxMinProperties(t *testing.T) {
	if err := quick.Check(maxMinInvariants, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinDeterminism(t *testing.T) {
	run := func() []float64 {
		k := sim.NewKernel()
		n := New(k)
		a := n.AddHost("a")
		r := n.AddRouter("r")
		b := n.AddHost("b")
		c := n.AddHost("c")
		n.Connect(a, r, 10e6, 1e-3)
		n.Connect(r, b, 10e6, 1e-3)
		n.Connect(r, c, 4e6, 1e-3)
		fs := []*Flow{
			n.StartTransfer(a, b, 1e12, "1", nil),
			n.StartTransfer(a, c, 1e12, "2", nil),
			n.StartTransfer(b, c, 1e12, "3", nil),
		}
		out := make([]float64, len(fs))
		for i, f := range fs {
			out[i] = f.Rate()
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("non-deterministic rates: %v vs %v", x, y)
		}
	}
}

// Remaining returns a transfer's unsent bits at the current instant.
// Progress is settled lazily inside the solver, so it folds in the time
// elapsed at the current rate.
func (f *Flow) Remaining() float64 {
	rem := f.remaining
	if f.net != nil {
		if dt := f.net.K.Now() - f.last; dt > 0 {
			rem -= f.rate * dt
		}
	}
	if rem < 0 {
		rem = 0
	}
	return rem
}

func TestCancelFreezesRemaining(t *testing.T) {
	k, n, a, b, _, _ := line(t)
	f := n.StartTransfer(a, b, 10e6, "x", nil)
	k.At(0.5, func() { f.Cancel() })
	k.RunAll(0)
	// 5 Mbit were sent by t=0.5 at 10 Mbps; after Cancel the handle must
	// freeze there instead of extrapolating phantom progress.
	if got := f.Remaining(); math.Abs(got-5e6) > 1 {
		t.Fatalf("remaining after cancel=%v, want 5e6", got)
	}
	if f.Rate() != 0 {
		t.Fatalf("rate after cancel=%v, want 0", f.Rate())
	}
}

// linked reports whether a and b share a direct link, so a random topology
// adds at most one link per pair.
func linked(n *Network, a, b NodeID) bool {
	return slices.ContainsFunc(n.adj[a], func(ht hopTo) bool { return ht.to == b })
}

// TestSendMessageMatchesSendMessageTo: the closure form and the closure-free
// form of a control-message send are one model. The same run of messages,
// with drops drawn from identically seeded generators and a background load
// change mid-run, must arrive at the same times in the same order, drop the
// same messages and leave the same MessageStats; and a warm SendMessage with
// a pre-built closure allocates nothing.
func TestSendMessageMatchesSendMessageTo(t *testing.T) {
	type arrival struct {
		i  int
		at float64
	}
	run := func(closure bool) ([]arrival, []float64, MsgStats) {
		k, n, a, b, l1, _ := line(t)
		n.SetDrop(0.5, sim.NewRand(5))
		var log []arrival
		var delays []float64
		deliver := func(arg any) { log = append(log, arrival{arg.(int), k.Now()}) }
		for i := 0; i < 64; i++ {
			src, dst := a, b
			switch i % 3 {
			case 1:
				src, dst = b, a
			case 2:
				dst = a
			}
			prio := BestEffort
			if i%5 == 4 {
				prio = Prioritized
			}
			bits := float64(1000 + 700*(i%7))
			k.AtAnon(float64(i)*0.01, func() {
				if i == 32 {
					n.SetBackgroundBoth(l1, 9e6)
				}
				var d float64
				if closure {
					d = n.SendMessage(src, dst, bits, prio, func() { deliver(i) })
				} else {
					d = n.SendMessageTo(src, dst, bits, prio, deliver, i)
				}
				delays = append(delays, d)
			})
		}
		k.RunAll(0)
		return log, delays, n.MessageStats()
	}
	logA, delA, stA := run(true)
	logB, delB, stB := run(false)
	if !slices.Equal(logA, logB) {
		t.Fatalf("arrivals differ:\nSendMessage:   %v\nSendMessageTo: %v", logA, logB)
	}
	if !slices.Equal(delA, delB) {
		t.Fatalf("returned delays differ:\n%v\n%v", delA, delB)
	}
	if stA != stB {
		t.Fatalf("stats differ: %+v vs %+v", stA, stB)
	}
	if stA.Dropped == 0 || int(stA.Sent) != len(logA) {
		t.Fatalf("drop pattern not exercised: %+v, %d arrivals", stA, len(logA))
	}

	k, n, a, b, _, _ := line(t)
	got := 0
	fn := func() { got++ }
	n.SendMessage(a, b, 8000, BestEffort, fn)
	k.RunAll(0)
	if allocs := testing.AllocsPerRun(100, func() {
		n.SendMessage(a, b, 8000, BestEffort, fn)
		k.RunAll(0)
	}); allocs != 0 {
		t.Fatalf("warm SendMessage allocates %v per send, want 0", allocs)
	}
	if got != 102 {
		t.Fatalf("%d deliveries, want 102", got)
	}
}
