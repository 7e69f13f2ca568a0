package gauges

import (
	"slices"
	"testing"

	"archadapt/internal/bus"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/probes"
	"archadapt/internal/sim"
)

// Value returns the smoothed load as of now: every sample that arrived
// before now folded in, as the next tick would fold it.
func (g *LoadGauge) Value() float64 {
	g.arrived(g.k.Now())
	return g.value
}

// deliveredLoad is the load gauge as it was before it folded: it subscribes
// a handler, so each queue sample is a delivery event and joins the EWMA at
// its arrival, and it reports the EWMA at its tick. The folding gauge must
// report what it reports.
type deliveredLoad struct {
	base
	smooth, value float64
	seen          bool
}

func newDeliveredLoad(k *sim.Kernel, probeBus, reportBus *bus.Shard, host netsim.NodeID, group string, period, smooth float64) *deliveredLoad {
	return &deliveredLoad{
		base: base{name: "load:" + group, host: host,
			k: k, probe: probeBus, report: reportBus, period: period},
		smooth: smooth,
	}
}

func (g *deliveredLoad) start() {
	g.sub = g.probe.Subscribe(g.host, bus.TopicAndField(probes.TopicQueue, "group", g.target()), func(m bus.Message) {
		g.lastUpd = g.update(g.probe, g.k.Now(), m.Span, m.V1)
		if !g.seen || g.smooth >= 1 {
			g.value, g.seen = m.V1, true
			return
		}
		g.value = float64(g.smooth*m.V1) + float64((1-g.smooth)*g.value)
	})
	g.tick(func(sim.Time) {
		if g.seen {
			g.publish(KindGroup, operators.PropLoad, g.value)
		}
	})
}

func (g *deliveredLoad) stop() { g.halt() }

// pubQueue publishes one queue sample of group G from the gauge host.
func (r *rig) pubQueue(v float64) {
	r.probe.Publish(bus.Message{Topic: probes.TopicQueue, Src: r.gHost, Group: "G", V1: v})
}

// A load gauge that folds its samples reports, tick for tick, what one that
// receives them by delivery reports, under loss on both the probe shard and
// the network and across stops and restarts that catch samples in flight:
// the same values at the same times, the same drop draws, and one kernel
// event fewer per sample it was handed on its own host.
func TestLoadGaugeMatchesDeliveryTwin(t *testing.T) {
	type outcome struct {
		reports            [][2]float64
		shardDraw, netDraw uint64
		shardDrops         uint64
		delivered          uint64
		fired              uint64
	}
	run := func(fold bool) outcome {
		r := newRig(t)
		shardRNG, netRNG := sim.NewRand(21), sim.NewRand(22)
		r.probe.SetDrop(0.2, shardRNG)
		r.net.SetDrop(0.2, netRNG)
		// Reports ride a prioritized bus, which the network's loss leaves
		// alone, so every draw is a queue sample's.
		rb := bus.New(r.k, r.net)
		rb.Priority = netsim.Prioritized
		report := rb.Default()
		var o outcome
		report.Subscribe(r.mHost, bus.TopicIs(TopicReport), func(m bus.Message) {
			o.reports = append(o.reports, [2]float64{m.Time, m.V1})
		})
		var g Gauge
		if fold {
			lg := NewLoadGauge(r.k, r.probe, report, r.gHost, "G", 5)
			lg.Smooth = 0.3
			g = lg
		} else {
			g = newDeliveredLoad(r.k, r.probe, report, r.gHost, "G", 5, 0.3)
		}
		g.start()
		rng := sim.NewRand(23)
		var at float64
		for i := 0; i < 600; i++ {
			switch i % 50 {
			case 7:
				at = sampleArrivingAt(t, 5*float64(i/50+1)) // arrives exactly at a tick
			case 8, 20:
				at += 5e-6 // in flight with the one before
			default:
				at = float64(i) * 0.41
			}
			v := float64(rng.Intn(40))
			r.k.At(at, func() { r.pubQueue(v) })
		}
		for _, at := range []float64{40, 97, 151} {
			// A restart 5 µs after a publish: that sample is in flight.
			r.k.At(at, func() { r.pubQueue(99) })
			r.k.At(at+5e-6, func() { g.stop(); g.start() })
		}
		r.k.Run(250)
		o.shardDraw, o.netDraw = shardRNG.Uint64(), netRNG.Uint64()
		o.shardDrops, o.delivered, o.fired = r.probe.Dropped(), r.probe.Delivered(), r.k.Stats().Fired
		return o
	}
	folded, twin := run(true), run(false)
	if len(twin.reports) < 40 || twin.shardDrops == 0 {
		t.Fatalf("degenerate run: %d reports, %d shard drops", len(twin.reports), twin.shardDrops)
	}
	if !slices.Equal(folded.reports, twin.reports) {
		t.Fatalf("reports (time, value) differ:\nfolded %v\ntwin   %v", folded.reports, twin.reports)
	}
	if folded.shardDraw != twin.shardDraw || folded.netDraw != twin.netDraw || folded.shardDrops != twin.shardDrops {
		t.Fatal("the folding gauge drew from the drop RNGs differently than the delivery twin")
	}
	// A sample discarded at a restart was handed over, and counted, at its
	// fold, while its twin delivery fired and found itself stale: the fold
	// saves one event per sample handed over, discarded or not.
	if saved := twin.fired - folded.fired; saved != folded.delivered {
		t.Fatalf("the fold saved %d events, want one per sample handed over (%d)", saved, folded.delivered)
	}
}

// A sample arriving exactly at a tick is folded by the next tick, not by that
// one: on the event path its delivery was scheduled after the tick was.
func TestLoadGaugeTickExcludesSampleArrivingAtIt(t *testing.T) {
	r := newRig(t)
	g := NewLoadGauge(r.k, r.probe, r.report, r.gHost, "G", 5)
	g.start() // ticks at 5, 10, 15
	r.k.At(1, func() { r.pubQueue(4) })
	r.k.At(sampleArrivingAt(t, 10), func() { r.pubQueue(9) })
	r.k.Run(16)
	var got []float64
	for _, m := range r.reports {
		got = append(got, m.Time, m.V1)
	}
	if want := []float64{5, 4, 10, 4, 15, 9}; !slices.Equal(got, want) {
		t.Fatalf("reports (time, value) %v, want %v", got, want)
	}
}

// Two samples in flight at once join the EWMA in the order they arrive.
func TestLoadGaugeFoldsInFlightSamplesInArrivalOrder(t *testing.T) {
	r := newRig(t)
	g := NewLoadGauge(r.k, r.probe, r.report, r.gHost, "G", 5)
	g.Smooth = 0.25
	g.start()
	r.k.At(0.5, func() { r.pubQueue(8) })
	r.k.At(1, func() { r.pubQueue(4) })
	r.k.At(1+2e-6, func() { r.pubQueue(0) })
	r.k.At(1+4e-6, func() {
		if g.inFlight.next == nil || g.inFlight.next.next != nil {
			t.Error("want exactly 2 samples in flight")
		}
	})
	r.k.Run(2)
	// 8, then 0.25*4 + 0.75*8 = 7, then 0.25*0 + 0.75*7 = 5.25; the other
	// order gives 5.5.
	if v := g.Value(); v != 5.25 {
		t.Fatalf("EWMA %v, want 5.25", v)
	}
}

// A gauge stopped while a sample flies to it never folds that sample, as
// the unsubscribed gauge never received it on the event path, and keeps the
// EWMA it had for its restart.
func TestLoadGaugeStoppedInFlightDiscardsSample(t *testing.T) {
	r := newRig(t)
	g := NewLoadGauge(r.k, r.probe, r.report, r.gHost, "G", 5)
	g.start()
	r.k.At(1, func() { r.pubQueue(3) })
	r.k.At(2, func() { r.pubQueue(7) })
	r.k.At(2+5e-6, func() {
		g.stop()
		g.start() // ticks at 7+5e-6, 12+5e-6, ...
	})
	r.k.Run(8)
	var got []float64
	for _, m := range r.reports {
		got = append(got, m.V1)
	}
	if want := []float64{3}; !slices.Equal(got, want) {
		t.Fatalf("report values %v, want %v: the sample in flight at the stop was folded", got, want)
	}
}

// A gauge on another host than the publisher's is handed each sample by its
// delivery event, at its arrival, and folds it then: nothing waits.
func TestLoadGaugeOffPublisherHostFoldsOnDelivery(t *testing.T) {
	r := newRig(t)
	g := NewLoadGauge(r.k, r.probe, r.report, r.mHost, "G", 5)
	g.start()
	var pending int
	r.k.At(1, func() { r.pubQueue(6); pending = r.k.Pending() })
	r.k.Run(2)
	if pending == 0 {
		t.Fatal("no delivery event scheduled to the remote gauge")
	}
	if g.inFlight.at != 0 || !g.seen || g.value != 6 {
		t.Fatalf("after the delivery: a sample in flight at %v, seen %v, value %v; want the sample folded", g.inFlight.at, g.seen, g.value)
	}
}
