package probes

import (
	"testing"

	"archadapt/internal/app"
	"archadapt/internal/bus"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *app.System, *bus.Shard, netsim.NodeID) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r := net.AddRouter("r")
	ch := net.AddHost("ch")
	sh := net.AddHost("sh")
	qh := net.AddHost("qh")
	for _, h := range []netsim.NodeID{ch, sh, qh} {
		net.Connect(h, r, 10e6, 1e-3)
	}
	a := app.New(k, net, qh)
	_ = a.CreateQueue("G")
	a.AddServer("S", sh, "G", 0.05, 0)
	_ = a.Activate("S")
	a.AddClient("C", ch, "G", 2.0, sim.NewRand(1))
	return k, a, bus.New(k, net).Default(), qh
}

func TestResponseProbePublishes(t *testing.T) {
	k, a, b, qh := rig(t)
	var msgs []bus.Message
	b.Subscribe(qh, bus.TopicIs(TopicResponse), func(m bus.Message) { msgs = append(msgs, m) })
	AttachResponseProbe(b, a.Client("C"))
	a.Start()
	k.Run(30)
	a.StopClients()
	k.RunAll(0)
	if len(msgs) < 20 {
		t.Fatalf("observations=%d, want ~60", len(msgs))
	}
	m := msgs[0]
	if m.Name != "C" || m.Group != "G" {
		t.Fatalf("fields %+v", m)
	}
	if m.V1 <= 0 {
		t.Fatal("latency missing")
	}
}

func TestQueueProbeSamples(t *testing.T) {
	k, a, b, qh := rig(t)
	var lens []float64
	b.Subscribe(qh, bus.TopicAndField(TopicQueue, "group", "G"), func(m bus.Message) {
		lens = append(lens, m.V1)
	})
	p := StartQueueProbe(k, b, a, 5)
	// Deactivate the server so the queue backs up.
	_ = a.Deactivate("S")
	a.Start()
	// Run past the t=30 tick so its delivery lands, then stop the probe.
	k.Run(32)
	p.Stop()
	n := len(lens)
	if n < 4 {
		t.Fatalf("samples=%d", n)
	}
	if lens[n-1] <= lens[0] {
		t.Fatalf("queue should grow with server down: %v", lens)
	}
	k.Run(62)
	if len(lens) != n {
		t.Fatal("probe kept sampling after Stop")
	}
}
