package workload

import (
	"math"
	"testing"

	"archadapt/internal/app"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *netsim.Network, *app.System, Links) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r1 := net.AddRouter("r1")
	r2 := net.AddRouter("r2")
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	q := net.AddHost("q")
	net.Connect(h1, r1, LinkCapacity, 1e-3)
	net.Connect(h2, r2, LinkCapacity, 1e-3)
	net.Connect(q, r2, LinkCapacity, 1e-3)
	sg1 := net.Connect(r1, r2, LinkCapacity, 1e-3)
	r3 := net.AddRouter("r3")
	net.Connect(q, r3, LinkCapacity, 1e-3)
	sg2 := net.Connect(r1, r3, LinkCapacity, 1e-3)
	a := app.New(k, net, q)
	_ = a.CreateQueue("G")
	a.AddServer("S", h2, "G", 0.05, 0)
	_ = a.Activate("S")
	a.AddClient("C1", h1, "G", 0, sim.NewRand(1))
	return k, net, a, Links{SG1Path: sg1, SG2Path: sg2}
}

func TestScheduleOrderedInstall(t *testing.T) {
	k := sim.NewKernel()
	var got []string
	s := &Schedule{}
	s.Add(10, "b", func() { got = append(got, "b") })
	s.Add(5, "a", func() { got = append(got, "a") })
	s.Add(10, "c", func() { got = append(got, "c") })
	s.Install(k)
	k.RunAll(0)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order %v", got)
	}
}

func TestPaperPhases(t *testing.T) {
	k, net, a, links := rig(t)
	sched := Paper(net, a, links, sim.NewRand(9))
	if len(sched.Steps) != 5 {
		t.Fatalf("steps=%d, want 5", len(sched.Steps))
	}
	sched.Install(k)

	check := func(at float64, wantSG1, wantSG2, wantRate float64, stressSize bool) {
		k.Run(at)
		cli := a.Client("C1")
		if got := LinkCapacity - net.Background(links.SG1Path, netsim.Fwd); math.Abs(got-wantSG1) > 1 {
			t.Fatalf("t=%v SG1 avail=%v, want %v", at, got, wantSG1)
		}
		if got := LinkCapacity - net.Background(links.SG2Path, netsim.Fwd); math.Abs(got-wantSG2) > 1 {
			t.Fatalf("t=%v SG2 avail=%v, want %v", at, got, wantSG2)
		}
		if cli.Rate != wantRate {
			t.Fatalf("t=%v rate=%v, want %v", at, cli.Rate, wantRate)
		}
		if stressSize {
			if v := cli.RespBits.Draw(); v != StressResp {
				t.Fatalf("t=%v respBits=%v, want fixed %v", at, v, StressResp)
			}
		} else {
			// Baseline sizes jitter around the median.
			sum := 0.0
			for i := 0; i < 200; i++ {
				sum += cli.RespBits.Draw()
			}
			if mean := sum / 200; mean < BaselineResp/2 || mean > BaselineResp*2 {
				t.Fatalf("t=%v baseline mean resp %v", at, mean)
			}
		}
	}
	check(10, LinkCapacity, LinkCapacity, BaselineRate, false)
	check(130, CrushedAvail, HighAvail, BaselineRate, false)
	check(610, ReducedAvail, ModerateAvail, StressRate, true)
	check(1210, ModerateAvail, RestoredAvail, BaselineRate, false)
}

func TestPaperStopsClients(t *testing.T) {
	k, net, a, links := rig(t)
	Paper(net, a, links, sim.NewRand(9)).Install(k)
	k.Run(RunEnd + 100)
	before := a.Client("C1").Responses()
	k.Run(RunEnd + 400)
	after := a.Client("C1").Responses()
	// A few in-flight responses may land, but generation has stopped.
	if after > before+5 {
		t.Fatalf("clients still generating after RunEnd: %d -> %d", before, after)
	}
}

func TestMatchedSequences(t *testing.T) {
	// Same seed ⇒ identical response-size sequences (the paper's §5.1
	// control-variable requirement).
	sizes := func(seed uint64) []float64 {
		k, net, a, links := rig(t)
		_ = k
		Paper(net, a, links, sim.NewRand(seed)).Install(k)
		k.Run(1)
		cli := a.Client("C1")
		out := make([]float64, 50)
		for i := range out {
			out[i] = cli.RespBits.Draw()
		}
		return out
	}
	a, b := sizes(5), sizes(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed sequences diverge")
		}
	}
	c := sizes(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestOscillatorAlternates(t *testing.T) {
	k, net, _, links := rig(t)
	Oscillator(net, links, 100, 400, 100).Install(k)
	k.Run(150)
	if avail := LinkCapacity - net.Background(links.SG1Path, netsim.Fwd); avail > CrushedAvail+1 {
		t.Fatalf("phase 1 should crush SG1: %v", avail)
	}
	k.Run(250)
	if avail := LinkCapacity - net.Background(links.SG1Path, netsim.Fwd); avail < HighAvail-1 {
		t.Fatalf("phase 2 should restore SG1: %v", avail)
	}
	if avail := LinkCapacity - net.Background(links.SG2Path, netsim.Fwd); avail > CrushedAvail+1 {
		t.Fatalf("phase 2 should crush SG2: %v", avail)
	}
	k.Run(500)
	if avail := LinkCapacity - net.Background(links.SG1Path, netsim.Fwd); avail < LinkCapacity-1 {
		t.Fatalf("end should restore both: %v", avail)
	}
}
