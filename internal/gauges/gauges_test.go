package gauges

import (
	"math"
	"slices"
	"testing"

	"archadapt/internal/bus"
	"archadapt/internal/netsim"
	"archadapt/internal/probes"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
)

type rig struct {
	k       *sim.Kernel
	net     *netsim.Network
	probe   *bus.Shard
	report  *bus.Shard
	mgr     *Manager
	gHost   netsim.NodeID
	gLink   netsim.LinkID // the gauge host's access link
	mHost   netsim.NodeID
	rm      *remos.Service
	reports []bus.Message
}

func newRig(t testing.TB) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	gHost := net.AddHost("gauge")
	r := net.AddRouter("r")
	mHost := net.AddHost("mgr")
	gLink := net.Connect(gHost, r, 10e6, 1e-3)
	net.Connect(mHost, r, 10e6, 1e-3)
	rg := &rig{
		k: k, net: net,
		probe:  bus.New(k, net).Default(),
		report: bus.New(k, net).Default(),
		mgr:    NewManager(k, net, mHost),
		gHost:  gHost, gLink: gLink, mHost: mHost,
		rm: remos.New(k, net, mHost),
	}
	rg.report.Subscribe(mHost, bus.TopicIs(TopicReport), func(m bus.Message) {
		rg.reports = append(rg.reports, m)
	})
	return rg
}

func (r *rig) pubResponse(client string, latency float64) {
	r.probe.Publish(bus.Message{
		Topic: probes.TopicResponse,
		Src:   r.gHost,
		Name:  client,
		V1:    latency,
		Group: "G",
	})
}

func TestLatencyGaugeWindowedAverage(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	if err := r.mgr.DefaultLease().Create(g, nil); err != nil {
		t.Fatal(err)
	}
	// Deployment handshake first; then samples at t=30.
	r.k.At(30, func() { r.pubResponse("C1", 1.0) })
	r.k.At(31, func() { r.pubResponse("C1", 3.0) })
	r.k.At(31, func() { r.pubResponse("C2", 100.0) }) // other client: filtered out
	r.k.Run(40)
	if len(r.reports) == 0 {
		t.Fatal("no gauge reports")
	}
	last := r.reports[len(r.reports)-1]
	if last.Target != "C1" || last.Prop != "averageLatency" || last.Kind != "client" {
		t.Fatalf("report fields %+v", last)
	}
	if v := last.V1; math.Abs(v-2.0) > 1e-9 {
		t.Fatalf("avg=%v, want 2.0", v)
	}
	// Old samples age out of the window.
	r.k.Run(60)
	n := len(r.reports)
	r.k.Run(70)
	if len(r.reports) != n {
		t.Fatal("gauge should stop reporting once the window empties")
	}
}

func TestLoadGaugeSmoothing(t *testing.T) {
	r := newRig(t)
	g := NewLoadGauge(r.k, r.probe, r.report, r.gHost, "G", 5)
	g.Smooth = 0.5
	if err := r.mgr.DefaultLease().Create(g, nil); err != nil {
		t.Fatal(err)
	}
	pub := func(at, v float64) {
		r.k.At(at, func() {
			r.probe.Publish(bus.Message{
				Topic: probes.TopicQueue, Src: r.gHost,
				Group: "G", V1: v,
			})
		})
	}
	pub(30, 10)
	pub(31, 0)
	r.k.Run(40)
	// EWMA: first sample initializes to 10, then 0.5*0 + 0.5*10 = 5.
	if v := g.Value(); math.Abs(v-5.0) > 1e-9 {
		t.Fatalf("smoothed=%v, want 5", v)
	}
}

func TestBandwidthGaugeQueriesRemos(t *testing.T) {
	r := newRig(t)
	r.rm.Prequery(r.mHost, r.gHost)
	r.k.RunAll(0) // advances the clock past the 90 s collection
	g := NewBandwidthGauge(r.k, r.report, r.rm, r.gHost, "C1",
		func() (netsim.NodeID, bool) { return r.mHost, true }, 5)
	if err := r.mgr.DefaultLease().Create(g, nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + 60)
	if len(r.reports) == 0 {
		t.Fatal("no bandwidth reports")
	}
	last := r.reports[len(r.reports)-1]
	if last.Kind != "clientRole" || last.Prop != "bandwidth" {
		t.Fatalf("fields %+v", last)
	}
	if v := last.V1; math.Abs(v-10e6) > 1 {
		t.Fatalf("bw=%v", v)
	}
	if v, ok := g.Last(); !ok || v != last.V1 {
		t.Fatal("Last() mismatch")
	}
}

// TestBandwidthGaugeQueryAllocationFree holds the warm measurement cycle —
// gauge tick, query message, Remos serve, reply message, report — at zero
// allocations: the gauge hands Remos itself and a query number instead of a
// closure, and the query rides a pooled record.
func TestBandwidthGaugeQueryAllocationFree(t *testing.T) {
	r := newRig(t)
	r.rm.Prequery(r.mHost, r.gHost)
	r.k.RunAll(0)
	g := NewBandwidthGauge(r.k, r.report, r.rm, r.gHost, "C1",
		func() (netsim.NodeID, bool) { return r.mHost, true }, 5)
	if err := r.mgr.DefaultLease().Create(g, nil); err != nil {
		t.Fatal(err)
	}
	r.k.Run(r.k.Now() + 60)
	if len(r.reports) == 0 {
		t.Fatal("no bandwidth reports before measuring")
	}
	const periods = 100
	r.reports = make([]bus.Message, 0, 2*periods) // the rig's own sink must not grow
	queries := r.rm.Queries()
	period := func() { r.k.Run(r.k.Now() + 5) }
	if avg := testing.AllocsPerRun(periods, period); avg != 0 {
		t.Fatalf("%v allocations per warm gauge period, want 0", avg)
	}
	// AllocsPerRun adds one warm-up call: one query and one report each.
	if got := r.rm.Queries() - queries; got != periods+1 {
		t.Fatalf("%d Remos queries in %d periods", got, periods+1)
	}
	if got := len(r.reports); got != periods+1 {
		t.Fatalf("%d reports in %d periods", got, periods+1)
	}
}

func TestBandwidthGaugeSkipsWhenNoServer(t *testing.T) {
	r := newRig(t)
	g := NewBandwidthGauge(r.k, r.report, r.rm, r.gHost, "C1",
		func() (netsim.NodeID, bool) { return 0, false }, 5)
	_ = r.mgr.DefaultLease().Create(g, nil)
	r.k.Run(60)
	if len(r.reports) != 0 {
		t.Fatal("gauge reported with no measurement endpoint")
	}
}

func TestCreationHandshakeCost(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	live := -1.0
	if err := r.mgr.DefaultLease().Create(g, func() { live = r.k.Now() }); err != nil {
		t.Fatal(err)
	}
	r.k.Run(120)
	// 4 round trips with 2.5 s protocol delay each: at least 10 s.
	if live < 10 {
		t.Fatalf("gauge live at %v, want >= 10 s of protocol cost", live)
	}
	if live > 30 {
		t.Fatalf("gauge deployment too slow on idle network: %v", live)
	}
	if c, _, _ := r.mgr.Counts(); c != 1 {
		t.Fatal("create count")
	}
	if r.mgr.ProtocolTime() <= 0 {
		t.Fatal("protocol time not accounted")
	}
}

func TestDuplicateCreateRejected(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	_ = r.mgr.DefaultLease().Create(g, nil)
	g2 := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	if err := r.mgr.DefaultLease().Create(g2, nil); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestDeleteStopsReporting(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 60, 5)
	_ = r.mgr.DefaultLease().Create(g, nil)
	r.k.At(30, func() { r.pubResponse("C1", 1.0) })
	r.k.Run(45)
	n := len(r.reports)
	if n == 0 {
		t.Fatal("no reports before delete")
	}
	done := false
	if err := r.mgr.DefaultLease().Delete(g.Name(), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	r.k.Run(200)
	if !done {
		t.Fatal("delete handshake never completed")
	}
	if len(r.reports) != n {
		t.Fatalf("gauge reported after delete: %d -> %d", n, len(r.reports))
	}
	if r.mgr.Deployed() != 0 {
		t.Fatal("gauge still deployed")
	}
	if err := r.mgr.DefaultLease().Delete(g.Name(), nil); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestRecreateVsCachedCost(t *testing.T) {
	measure := func(caching bool) float64 {
		r := newRig(t)
		r.mgr.Caching = caching
		g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
		_ = r.mgr.DefaultLease().Create(g, nil)
		r.k.Run(60)
		start := r.k.Now()
		doneAt := -1.0
		repl := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1x", 20, 5)
		if err := r.mgr.DefaultLease().Recreate(g.Name(), repl, func() { doneAt = r.k.Now() }); err != nil {
			t.Fatal(err)
		}
		r.k.Run(600)
		if doneAt < 0 {
			t.Fatal("recreate never completed")
		}
		if r.mgr.DefaultLease().Gauge("C1x") == nil && r.mgr.DefaultLease().Gauge(repl.Name()) == nil {
			t.Fatal("replacement not deployed")
		}
		return doneAt - start
	}
	slow := measure(false)
	fast := measure(true)
	// Paper §5.3: caching should improve repair speed "dramatically".
	if fast >= slow/3 {
		t.Fatalf("cached churn %v not dramatically faster than recreate %v", fast, slow)
	}
}

func TestRecreateUnknownGauge(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	if err := r.mgr.DefaultLease().Recreate("nope", g, nil); err == nil {
		t.Fatal("recreate of unknown gauge should fail")
	}
}

// TestRecreateOntoLiveNameRejected: re-creating a gauge under a name another
// live gauge holds fails up front and tears nothing down. Neither gauge is
// orphaned, replaced or stopped, and done never fires.
func TestRecreateOntoLiveNameRejected(t *testing.T) {
	for _, caching := range []bool{false, true} {
		r := newRig(t)
		r.mgr.Caching = caching
		l := r.mgr.DefaultLease()
		a := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
		b := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C2", 20, 5)
		for _, g := range []Gauge{a, b} {
			if err := l.Create(g, nil); err != nil {
				t.Fatal(err)
			}
		}
		r.k.Run(60)
		repl := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C2", 20, 5)
		err := l.Recreate(a.Name(), repl, func() { t.Errorf("caching %v: done fired for a rejected recreate", caching) })
		if err == nil {
			t.Errorf("caching %v: recreate onto a live gauge's name should fail", caching)
		}
		r.k.Run(600)
		if l.Gauge(a.Name()) != a || l.Gauge(b.Name()) != b || l.Deployed() != 2 || r.mgr.Deployed() != 2 {
			t.Errorf("caching %v: deployed %d, %s %p, %s %p; want the two originals", caching,
				r.mgr.Deployed(), a.Name(), l.Gauge(a.Name()), b.Name(), l.Gauge(b.Name()))
		}
		if c, d, rt := l.Counts(); c != 2 || d != 0 || rt != 0 {
			t.Errorf("caching %v: counts %d/%d/%d, want 2 creates only", caching, c, d, rt)
		}
	}
}

func TestChurnUnderCongestionIsSlower(t *testing.T) {
	// The gauge protocol rides the shared network: churn during congestion
	// takes longer — the §5.3 monitoring-lag pathology at repair time.
	measure := func(congest bool) float64 {
		r := newRig(t)
		if congest {
			r.net.SetBackgroundBoth(r.gLink, 10e6)
		}
		g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
		done := -1.0
		_ = r.mgr.DefaultLease().Create(g, func() { done = r.k.Now() })
		r.k.Run(3000)
		if done < 0 {
			t.Fatal("create never completed")
		}
		return done
	}
	idle := measure(false)
	congested := measure(true)
	if congested < idle*1.2 {
		t.Fatalf("congested churn %v should exceed idle %v", congested, idle)
	}
}

// TestHandshakeSurvivesLostLegs drives the retransmission path: on a
// monitoring plane that drops 30 % or 60 % of best-effort messages, five
// concurrent creations and then one deletion still complete. Every live
// time, the deletion time, the protocol time, the fired events and the drop
// count are pinned exactly, so any change to the order of the protocol's
// messages, retry timers, protocol delays or drop draws shows here.
func TestHandshakeSurvivesLostLegs(t *testing.T) {
	for _, tc := range []struct {
		rate     float64
		live     [5]float64
		deleted  float64
		protocol float64
		executed uint64
		dropped  uint64
	}{
		{
			rate:     0.3,
			live:     [5]float64{25.037107200000005, 25.037107200000005, 55.0371072, 70.03710720000002, 55.03710719999998},
			deleted:  60.05566079999999,
			protocol: 235.20408960000003,
			executed: 1684,
			dropped:  12,
		},
		{
			rate:     0.6,
			live:     [5]float64{115.03710720000002, 175.0371072, 70.03710720000001, 85.03710720000001, 190.03710720000004},
			deleted:  180.05566080000003,
			protocol: 745.2040896000001,
			executed: 1640,
			dropped:  46,
		},
	} {
		r := newRig(t)
		r.net.SetDrop(tc.rate, sim.NewRand(11))
		l := r.mgr.DefaultLease()
		var live [5]float64
		deleted := -1.0
		for i := range live {
			g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C"+string(rune('1'+i)), 20, 5)
			if err := l.Create(g, func() {
				live[i] = r.k.Now()
				if i != 2 {
					return
				}
				// The deletion's legs interleave with the creations still
				// in flight.
				if err := l.Delete(g.Name(), func() { deleted = r.k.Now() }); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		r.k.Run(2000)
		if live != tc.live || deleted != tc.deleted {
			t.Errorf("rate %v: live at %v, deleted at %v; want %v, %v", tc.rate, live, deleted, tc.live, tc.deleted)
		}
		if got := r.mgr.ProtocolTime(); got != tc.protocol {
			t.Errorf("rate %v: protocol time %v, want %v", tc.rate, got, tc.protocol)
		}
		if got := r.k.Executed(); got != tc.executed {
			t.Errorf("rate %v: %d events fired, want %d", tc.rate, got, tc.executed)
		}
		if got := r.net.MessageStats().Dropped; got != tc.dropped {
			t.Errorf("rate %v: %d messages dropped, want %d", tc.rate, got, tc.dropped)
		}
	}
}

// TestHandshakeAllocatesOnce: a creation handshake, all eight legs of it,
// allocates its exchange record and nothing else on a warmed manager.
func TestHandshakeAllocatesOnce(t *testing.T) {
	r := newRig(t)
	done := 0
	count := func() { done++ }
	run := func() {
		r.mgr.handshake(&exchange{anchor: r.mHost, host: r.gHost, rounds: createMsgs, done: count})
		r.k.Run(r.k.Now() + 60)
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 1 {
		t.Errorf("%v allocations per handshake, want 1", avg)
	}
	if done != 102 {
		t.Errorf("%d handshakes completed, want 102", done)
	}
}

// BenchmarkGaugeLifecycle prices one gauge's create, live and delete on a
// warmed lease: both handshakes run to the end.
func BenchmarkGaugeLifecycle(b *testing.B) {
	r := newRig(b)
	l := r.mgr.DefaultLease()
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	cycle := func() {
		if err := l.Create(g, nil); err != nil {
			b.Fatal(err)
		}
		r.k.Run(r.k.Now() + 60)
		if err := l.Delete(g.Name(), nil); err != nil {
			b.Fatal(err)
		}
		r.k.Run(r.k.Now() + 60)
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// sampleArrivingAt returns the publish time whose same-host sample arrives at
// exactly t: the float that, plus the 10 µs local hop, rounds to t.
func sampleArrivingAt(t *testing.T, at float64) float64 {
	t.Helper()
	p := at - 1e-5
	for i := 0; p+1e-5 != at && i < 8; i++ {
		if p+1e-5 < at {
			p = math.Nextafter(p, math.Inf(1))
		} else {
			p = math.Nextafter(p, math.Inf(-1))
		}
	}
	if p+1e-5 != at {
		t.Fatalf("no publish time arrives at exactly %v", at)
	}
	return p
}

// A sample arriving at exactly a tick's time is averaged by the next tick,
// not by that one: on the event path its delivery was scheduled after the
// tick was, so the tick fired first, and the fold keeps that order.
func TestLatencyGaugeTickExcludesSampleArrivingAtIt(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	g.start() // ticks at 5, 10, 15
	r.k.At(1, func() { r.pubResponse("C1", 1) })
	r.k.At(sampleArrivingAt(t, 10), func() { r.pubResponse("C1", 3) })
	r.k.Run(16)
	var got []float64
	for _, m := range r.reports {
		got = append(got, m.Time, m.V1)
	}
	if want := []float64{5, 1, 10, 1, 15, 2}; !slices.Equal(got, want) {
		t.Fatalf("reports (time, value) %v, want %v", got, want)
	}
}

// A gauge stopped while a sample is still in flight to it, less than 10 µs
// after the publish, never counts that sample, as it never received it on
// the event path.
func TestLatencyGaugeStoppedInFlightDiscardsSample(t *testing.T) {
	r := newRig(t)
	g := NewLatencyGauge(r.k, r.probe, r.report, r.gHost, "C1", 20, 5)
	g.start()
	r.k.At(1, func() { r.pubResponse("C1", 7) })
	r.k.At(1+5e-6, func() {
		g.stop()
		g.start() // ticks at 6+5e-6, 11+5e-6, ...
	})
	r.k.At(8, func() { r.pubResponse("C1", 2) })
	r.k.Run(20)
	var got []float64
	for _, m := range r.reports {
		got = append(got, m.V1)
	}
	if want := []float64{2, 2}; !slices.Equal(got, want) {
		t.Fatalf("report values %v, want %v: the sample published just before the stop was averaged", got, want)
	}
}

// Under injected loss on both the network and the probe shard, the gauge
// draws exactly as a plain subscriber on its host draws, keeps the samples
// that subscriber receives, and reports at each tick the average of those
// that have arrived within the window.
func TestLatencyGaugeFoldKeepsDropDraws(t *testing.T) {
	type outcome struct {
		samples            [][2]float64 // (arrival, value), the plain subscriber's
		reports            []bus.Message
		shardDraw, netDraw uint64
		shardDrops         uint64
		msgs               netsim.MsgStats
	}
	run := func(gauge bool) outcome {
		r := newRig(t)
		shardRNG, netRNG := sim.NewRand(11), sim.NewRand(12)
		r.probe.SetDrop(0.25, shardRNG)
		r.net.SetDrop(0.25, netRNG)
		var o outcome
		if gauge {
			// Reports ride a prioritized bus, which the network's loss
			// leaves alone, so every draw is a probe sample's.
			rb := bus.New(r.k, r.net)
			rb.Priority = netsim.Prioritized
			report := rb.Default()
			report.Subscribe(r.mHost, bus.TopicIs(TopicReport), func(m bus.Message) { o.reports = append(o.reports, m) })
			g := NewLatencyGauge(r.k, r.probe, report, r.gHost, "C1", 20, 5)
			g.start()
		} else {
			r.probe.Subscribe(r.gHost, bus.TopicAndField(probes.TopicResponse, "client", "C1"), func(m bus.Message) {
				o.samples = append(o.samples, [2]float64{r.k.Now(), m.V1})
			})
		}
		for i := 0; i < 400; i++ {
			r.k.At(float64(i)*0.29, func() { r.pubResponse("C1", float64(i%17)) })
		}
		r.k.Run(130)
		o.shardDraw, o.netDraw, o.shardDrops, o.msgs = shardRNG.Uint64(), netRNG.Uint64(), r.probe.Dropped(), r.net.MessageStats()
		return o
	}
	folded, plain := run(true), run(false)
	if folded.shardDraw != plain.shardDraw || folded.netDraw != plain.netDraw {
		t.Fatal("the gauge drew from the drop RNGs differently than a plain subscriber")
	}
	if plain.shardDrops == 0 || plain.msgs.Dropped == 0 {
		t.Fatalf("no loss injected: %d shard drops, %d network drops", plain.shardDrops, plain.msgs.Dropped)
	}
	if folded.shardDrops != plain.shardDrops {
		t.Fatalf("shard drops %d, plain subscriber's %d", folded.shardDrops, plain.shardDrops)
	}
	if len(folded.reports) == 0 {
		t.Fatal("no reports")
	}
	for _, rep := range folded.reports {
		now := rep.Time
		sum, n := 0.0, 0
		for _, s := range plain.samples {
			if s[0] >= now-20 && s[0] < now {
				sum += s[1]
				n++
			}
		}
		if n == 0 || rep.V1 != sum/float64(n) {
			t.Fatalf("report at %v = %v, want the average of the %d samples arrived in the window", now, rep.V1, n)
		}
	}
}
