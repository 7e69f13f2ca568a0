package app

import (
	"fmt"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// classRig is a flow-class fixture over two regions joined by one backbone
// link: region 0 holds hosts a0, a1 and sa (a server machine), region 1
// holds b0, b1, sb and the queue machine. Groups G1 and G2 have queues; G3
// does not yet.
//
//	S1 G1 on sa (active), S2 G1 on sb (active), S3 G2 on sa (spare),
//	S4 G2 on sb (active);
//	C1 G1 on a0, C2 G1 on b0, C3 G2 on a1, C4 G1 on a1, C5 G3 on b1.
type classRig struct {
	net                       *netsim.Network
	sys                       *System
	a0, a1, b0, b1, sa, sb, q netsim.NodeID
	region                    map[netsim.NodeID]int
}

func newClassRig(t *testing.T) *classRig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r := &classRig{net: net, region: map[netsim.NodeID]int{}}
	ra, rb := net.AddRouter("ra"), net.AddRouter("rb")
	net.Connect(ra, rb, 10e6, 1e-3)
	for _, h := range []struct {
		id     *netsim.NodeID
		name   string
		router netsim.NodeID
		region int
	}{
		{&r.a0, "a0", ra, 0}, {&r.a1, "a1", ra, 0}, {&r.sa, "sa", ra, 0},
		{&r.b0, "b0", rb, 1}, {&r.b1, "b1", rb, 1}, {&r.sb, "sb", rb, 1}, {&r.q, "q", rb, 1},
	} {
		*h.id = net.AddHost(h.name)
		net.Connect(*h.id, h.router, 10e6, 1e-3)
		r.region[*h.id] = h.region
	}
	r.sys = New(k, net, r.q)
	for _, g := range []string{"G1", "G2"} {
		if err := r.sys.CreateQueue(g); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []struct {
		name, group string
		host        netsim.NodeID
		active      bool
	}{
		{"S1", "G1", r.sa, true}, {"S2", "G1", r.sb, true}, {"S3", "G2", r.sa, false}, {"S4", "G2", r.sb, true},
	} {
		r.sys.AddServer(s.name, s.host, s.group, 0.05, 0)
		if s.active {
			if err := r.sys.Activate(s.name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name, group string
		host        netsim.NodeID
	}{
		{"C1", "G1", r.a0}, {"C2", "G1", r.b0}, {"C3", "G2", r.a1}, {"C4", "G1", r.a1}, {"C5", "G3", r.b1},
	} {
		r.sys.AddClient(c.name, c.host, c.group, 0, sim.NewRand(1))
	}
	return r
}

func (r *classRig) regionOf(h netsim.NodeID) int { return r.region[h] }

// classString renders what BuildFlowClasses decides — key, group position,
// endpoints and members, in order — and none of the engine's state.
func classString(classes []*FlowClass) string {
	out := ""
	for _, fc := range classes {
		out += fmt.Sprintf("(%d,%s,%d) %d->%d [", fc.Region, fc.Group, fc.GroupPos, fc.Src, fc.Dst)
		for _, c := range fc.Members {
			out += " " + c.Name
		}
		out += " ]\n"
	}
	return out
}

// TestFlowClassesFollowEveryMutator is the reference check for the
// revision key: after each System mutator, MemberRev has moved and a Sync
// leaves exactly the classes a fresh BuildFlowClasses returns — same keys,
// order, endpoints and members. A mutator that forgot to advance the
// revision fails the first check; one whose change the cache missed fails
// the second, which is why every case that can change the classes (moves)
// is built so that it does. Each case runs exactly one mutator between two
// Syncs; prepare, if set, runs before the first.
func TestFlowClassesFollowEveryMutator(t *testing.T) {
	cases := []struct {
		name    string
		moves   bool
		mutate  func(r *classRig) error
		prepare func(r *classRig) error
	}{
		{"AddClient", true, func(r *classRig) error {
			r.sys.AddClient("C6", r.b1, "G2", 0, sim.NewRand(2))
			return nil
		}, nil},
		{"AddServer", false, func(r *classRig) error {
			r.sys.AddServer("S5", r.sa, "G2", 0.05, 0)
			return nil
		}, nil},
		// C5's class learns G3's position.
		{"CreateQueue", true, func(r *classRig) error { return r.sys.CreateQueue("G3") }, nil},
		// S3 is registered before S4, so it becomes G2's anchor.
		{"Activate", true, func(r *classRig) error { return r.sys.Activate("S3") }, nil},
		{"Deactivate", true, func(r *classRig) error { return r.sys.Deactivate("S1") }, nil},
		// A busy server's deactivation lands when its request completes.
		{"DeactivateBusy", true, func(r *classRig) error {
			r.sys.finishServing(r.sys.Server("S1"))
			return nil
		}, func(r *classRig) error {
			r.sys.Server("S1").busy = true
			return r.sys.Deactivate("S1")
		}},
		{"ConnectServer", false, func(r *classRig) error { return r.sys.ConnectServer("S3", "G1") }, nil},
		{"MoveClient", true, func(r *classRig) error { return r.sys.MoveClient("C1", "G2") }, nil},
		{"Rehost", true, func(r *classRig) error {
			return r.sys.Rehost(r.q,
				map[string]netsim.NodeID{"S1": r.sb, "S2": r.sa, "S3": r.sb, "S4": r.sa},
				map[string]netsim.NodeID{"C1": r.b0, "C2": r.a0, "C3": r.a1, "C4": r.b1, "C5": r.b1})
		}, nil},
		{"CrashServer", true, func(r *classRig) error { return r.sys.CrashServer("S4") }, nil},
		{"RemoveServer", true, func(r *classRig) error { return r.sys.RemoveServer("S1") }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newClassRig(t)
			if tc.prepare != nil {
				if err := tc.prepare(r); err != nil {
					t.Fatal(err)
				}
			}
			var fs FlowClasses
			if !fs.Sync(r.sys, r.regionOf) {
				t.Fatal("first Sync built nothing")
			}
			before, rev := classString(fs.List), r.sys.MemberRev()
			if fs.Sync(r.sys, r.regionOf) {
				t.Fatal("Sync rebuilt at an unchanged revision")
			}
			if err := tc.mutate(r); err != nil {
				t.Fatal(err)
			}
			if r.sys.MemberRev() == rev {
				t.Fatalf("%s did not advance MemberRev", tc.name)
			}
			fs.Sync(r.sys, r.regionOf)
			got, want := classString(fs.List), classString(BuildFlowClasses(r.sys, r.regionOf))
			if got != want {
				t.Fatalf("cached classes after %s:\n%swant:\n%s", tc.name, got, want)
			}
			if moved := got != before; moved != tc.moves {
				t.Fatalf("%s moved the classes: %v, want %v (before:\n%s)", tc.name, moved, tc.moves, before)
			}
		})
	}
}

// TestFlowClassesSyncCarriesState pins the carry-over rules: a class whose
// endpoints held still keeps its flow and accounting, a class whose anchor
// moved keeps its accounting but has its flow cancelled, and a class that
// no longer exists has its flow cancelled.
func TestFlowClassesSyncCarriesState(t *testing.T) {
	r := newClassRig(t)
	var fs FlowClasses
	fs.Sync(r.sys, r.regionOf)
	for i, fc := range fs.List {
		fc.NetBacklog, fc.Credit = float64(i+1), 0.5
		if fc.Src != fc.Dst {
			fc.Flow = r.net.StartClassFlow(fc.Src, fc.Dst, 1e3, fc.Group)
		}
	}
	byKey := func(classes []*FlowClass, region int, group string) *FlowClass {
		if i := findClass(classes, region, group); i >= 0 {
			return classes[i]
		}
		return nil
	}
	keep := byKey(fs.List, 1, "G1")   // C2 on b0 → S1 on sa: untouched
	anchor := byKey(fs.List, 0, "G2") // C3 on a1 → S4 on sb: S4 crashes
	vanish := byKey(fs.List, 0, "G1") // C1, C4: both move to G2
	keepFlow, anchorFlow := keep.Flow, anchor.Flow
	if keepFlow == nil || anchorFlow == nil || vanish.Flow == nil {
		t.Fatal("fixture classes have no flows")
	}
	for _, c := range []string{"C1", "C4"} {
		if err := r.sys.MoveClient(c, "G2"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.sys.CrashServer("S4"); err != nil {
		t.Fatal(err)
	}
	fs.Sync(r.sys, r.regionOf)

	if got := byKey(fs.List, 1, "G1"); got.Flow != keepFlow || got.NetBacklog != keep.NetBacklog || got.Credit != 0.5 {
		t.Fatalf("held class lost its state: %+v", got)
	}
	got := byKey(fs.List, 0, "G2")
	if got.Flow != nil || got.NetBacklog != anchor.NetBacklog || got.Credit != 0.5 {
		t.Fatalf("re-anchored class: flow %v, accounting %v/%v; want no flow and the old accounting", got.Flow, got.NetBacklog, got.Credit)
	}
	if byKey(fs.List, 0, "G1") != nil {
		t.Fatal("class (0,G1) survived with no members")
	}
	if n := r.net.ActiveFlows(); n != 2 {
		t.Fatalf("%d flows on the network, want the held class's and (1,G3)'s", n)
	}
}

// A synthetic delivery draws no reply size but leaves the client's size
// stream where a draw would have: the real requests sent after it carry the
// sizes they would carry had each delivery drawn one. A constant size
// leaves no stream to advance.
func TestDeliverSyntheticSkipsOneSizeDraw(t *testing.T) {
	r := newClassRig(t)
	cli := r.sys.Client("C1")
	for seed := uint64(0); seed < 64; seed++ {
		cli.RespBits = LogNormalSize(8*8192, 0.35, sim.NewRand(seed))
		twin := LogNormalSize(8*8192, 0.35, sim.NewRand(seed))
		for i := 0; i < int(seed%5); i++ {
			cli.DeliverSynthetic(0, 1, 1)
			twin.Draw()
		}
		if got, want := cli.RespBits.Draw(), twin.Draw(); got != want {
			t.Fatalf("seed %d: size after the deliveries %v, want %v", seed, got, want)
		}
	}
	cli.RespBits = ConstSize(20 * 8192)
	cli.DeliverSynthetic(0, 1, 1)
	if got := cli.RespBits.Draw(); got != 20*8192 {
		t.Fatalf("constant size %v, want %v", got, 20*8192)
	}
}
