package bus

import (
	"reflect"
	"slices"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/sim"
)

func rig() (*sim.Kernel, *netsim.Network, netsim.NodeID, netsim.NodeID, netsim.LinkID) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	l1 := n.Connect(a, r, 10e6, 1e-3)
	n.Connect(r, b, 10e6, 1e-3)
	return k, n, a, b, l1
}

func TestPublishDelivers(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	var got []Message
	b.Default().Subscribe(bHost, TopicIs("x"), func(m Message) { got = append(got, m) })
	b.Default().Publish(Message{Topic: "x", Src: a, V1: 1.5, Name: "hi"})
	b.Default().Publish(Message{Topic: "y", Src: a})
	k.RunAll(0)
	if len(got) != 1 {
		t.Fatalf("delivered=%d, want 1 (topic filter)", len(got))
	}
	if got[0].V1 != 1.5 || got[0].Name != "hi" {
		t.Fatalf("fields corrupted: %+v", got[0])
	}
	if b.Default().Published() != 2 || b.Default().Delivered() != 1 {
		t.Fatalf("stats: pub=%d del=%d", b.Default().Published(), b.Default().Delivered())
	}
}

func TestContentFilter(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	cnt := 0
	b.Default().Subscribe(bHost, TopicAndField("probe", "client", "C3"), func(Message) { cnt++ })
	b.Default().Publish(Message{Topic: "probe", Src: a, Name: "C3"})
	b.Default().Publish(Message{Topic: "probe", Src: a, Name: "C4"})
	k.RunAll(0)
	if cnt != 1 {
		t.Fatalf("content filter matched %d, want 1", cnt)
	}
}

// A field name that is not in the slot table reads "" from every message, so
// a filter on it used to match everything (value "") or nothing (any other
// value) without a word. It now matches nothing, either way.
func TestTopicAndFieldUnknownFieldMatchesNothing(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	var empty, other, known int
	b.Default().Subscribe(bHost, TopicAndField("probe", "clinet", ""), func(Message) { empty++ })
	b.Default().Subscribe(bHost, TopicAndField("probe", "clinet", "C3"), func(Message) { other++ })
	b.Default().Subscribe(bHost, TopicAndField("probe", "client", ""), func(Message) { known++ })
	b.Default().Publish(Message{Topic: "probe", Src: a, Name: "C3"})
	b.Default().Publish(Message{Topic: "probe", Src: a}) // every string field ""
	k.RunAll(0)
	if empty != 0 || other != 0 {
		t.Fatalf("filters on an unknown field matched %d (value \"\") and %d (value C3) messages, want none", empty, other)
	}
	if known != 1 {
		t.Fatalf("filter on a known field with value \"\" matched %d messages, want the one with an empty name", known)
	}
}

func TestMultipleSubscribersOrdered(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	var order []int
	b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { order = append(order, 1) })
	b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { order = append(order, 2) })
	b.Default().Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v", order)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	cnt := 0
	sub := b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { cnt++ })
	b.Default().Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	b.Default().Unsubscribe(sub)
	b.Default().Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if cnt != 1 {
		t.Fatalf("cnt=%d, want 1", cnt)
	}
	b.Default().Unsubscribe(sub) // double unsubscribe is a no-op
	b.Default().Unsubscribe(nil)
}

func TestUnsubscribeDropsInFlight(t *testing.T) {
	// A notification already on the wire must not be delivered after the
	// subscriber cancels.
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	cnt := 0
	sub := b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { cnt++ })
	b.Default().Publish(Message{Topic: "x", Src: a})
	sub2 := b.Default().Subscribe(bHost, TopicIs("x"), func(Message) {})
	_ = sub2
	b.Default().Unsubscribe(sub)
	// The pooled struct goes straight to the next subscriber: the delivery
	// still on the wire is addressed to it by pointer, and must not reach it.
	reissued := 0
	if again := b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { reissued++ }); again != sub {
		t.Fatal("subscription struct was not recycled")
	}
	k.RunAll(0)
	if cnt != 0 || reissued != 0 {
		t.Fatalf("in-flight delivery after unsubscribe: %d to the old handler, %d to the struct's next owner", cnt, reissued)
	}
}

func TestSameHostDeliveryFast(t *testing.T) {
	k, n, a, _, _ := rig()
	b := New(k, n)
	at := -1.0
	b.Default().Subscribe(a, TopicIs("x"), func(Message) { at = k.Now() })
	b.Default().Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if at < 0 || at > 1e-3 {
		t.Fatalf("local delivery at %v", at)
	}
}

func TestCongestionDelaysDelivery(t *testing.T) {
	k, n, a, bHost, l1 := rig()
	b := New(k, n)
	var times []float64
	b.Default().Subscribe(bHost, TopicIs("x"), func(Message) { times = append(times, k.Now()) })
	k.At(0, func() { b.Default().Publish(Message{Topic: "x", Src: a}) })
	k.At(10, func() { n.SetBackgroundBoth(l1, 10e6) }) // saturate
	k.At(10.1, func() { b.Default().Publish(Message{Topic: "x", Src: a}) })
	k.RunAll(0)
	if len(times) != 2 {
		t.Fatalf("deliveries=%d", len(times))
	}
	idle := times[0]
	congested := times[1] - 10.1
	if congested < 10*idle {
		t.Fatalf("congested delivery %v not slower than idle %v", congested, idle)
	}
	// Prioritized traffic ignores congestion.
	b.Priority = netsim.Prioritized
	t0 := k.Now()
	b.Default().Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if d := times[2] - t0; d > 2*idle+1e-6 {
		t.Fatalf("prioritized delivery %v should match idle %v", d, idle)
	}
}

func TestMessageTimeStamped(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	var stamp float64
	b.Default().Subscribe(bHost, TopicIs("x"), func(m Message) { stamp = m.Time })
	k.At(5, func() { b.Default().Publish(Message{Topic: "x", Src: a}) })
	k.RunAll(0)
	if stamp != 5 {
		t.Fatalf("publish time %v, want 5", stamp)
	}
}

func TestShardIsolation(t *testing.T) {
	// Two tenants on one bus: publishes on one shard never reach the other's
	// subscribers — the per-app-bus semantics, on shared infrastructure.
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	s1 := b.Acquire()
	s2 := b.Acquire()
	var got1, got2 int
	s1.Subscribe(bHost, TopicIs("x"), func(Message) { got1++ })
	s2.Subscribe(bHost, TopicIs("x"), func(Message) { got2++ })
	s1.Publish(Message{Topic: "x", Src: a})
	s1.Publish(Message{Topic: "x", Src: a})
	s2.Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if got1 != 2 || got2 != 1 {
		t.Fatalf("cross-shard leak: got1=%d got2=%d", got1, got2)
	}
	if b.Tenants() != 2 {
		t.Fatalf("tenants=%d", b.Tenants())
	}
}

func TestShardReleaseDropsInFlightAndRecycles(t *testing.T) {
	// A released shard's in-flight deliveries are discarded, and the next
	// Acquire reuses the shard and its subscription structs without the new
	// tenant seeing the old tenant's traffic.
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	s1 := b.Acquire()
	old := 0
	s1.Subscribe(bHost, TopicIs("x"), func(Message) { old++ })
	s1.Publish(Message{Topic: "x", Src: a}) // in flight at release
	s1.Release()

	s2 := b.Acquire()
	if s2 != s1 {
		t.Fatal("released shard was not recycled")
	}
	fresh := 0
	s2.Subscribe(bHost, TopicIs("x"), func(Message) { fresh++ })
	k.RunAll(0)
	if old != 0 {
		t.Fatalf("released tenant received %d deliveries", old)
	}
	if fresh != 0 {
		t.Fatalf("new tenant received the old tenant's in-flight delivery %d times", fresh)
	}
	s2.Publish(Message{Topic: "x", Src: a})
	k.RunAll(0)
	if fresh != 1 {
		t.Fatalf("new tenant deliveries=%d, want 1", fresh)
	}
	if b.Tenants() != 1 {
		t.Fatalf("tenants=%d", b.Tenants())
	}
}

func TestPublishBatchMatchesSequentialPublish(t *testing.T) {
	// PublishBatch must be observationally identical to publishing each
	// message in order — same matches, same delivery order, same timing, same
	// counters, traced or not — and must hand the caller's slice back as it
	// got it, although every delivered copy is stamped.
	type got struct {
		order     []string
		times     []float64
		stamps    []float64
		delivered uint64
		published uint64
	}
	run := func(batch, traced bool) (g got) {
		k, n, a, bHost, _ := rig()
		b := New(k, n)
		if traced {
			b.Tracer = obs.New(k.Now)
		}
		sh := b.Acquire()
		see := func(who string) func(Message) {
			return func(m Message) {
				g.order = append(g.order, who+":"+m.Group)
				g.times = append(g.times, k.Now())
				g.stamps = append(g.stamps, m.Time)
				if traced == (m.Span == 0) {
					t.Errorf("traced=%v but delivered span %d", traced, m.Span)
				}
			}
		}
		sh.Subscribe(bHost, TopicAndField("q", "group", "G1"), see("G1"))
		sh.Subscribe(bHost, TopicIs("q"), see("any"))
		sh.Subscribe(a, TopicIs("q"), see("local"))
		msgs := []Message{
			{Topic: "q", Src: a, Group: "G1", V1: 3},
			{Topic: "q", Src: a, Group: "G2", V1: 5},
			{Topic: "q", Src: bHost, Group: "G1", V1: 7}, // another source
			{Topic: "r", Src: a, Group: "G1"},
		}
		before := slices.Clone(msgs)
		k.At(4, func() {
			if batch {
				sh.PublishBatch(msgs)
			} else {
				for _, m := range msgs {
					sh.Publish(m)
				}
			}
		})
		k.RunAll(0)
		if !reflect.DeepEqual(msgs, before) {
			t.Fatalf("batch=%v traced=%v: publishing changed the caller's messages: %+v", batch, traced, msgs)
		}
		g.delivered, g.published = sh.Delivered(), sh.Published()
		return g
	}
	for _, traced := range []bool{false, true} {
		seq, bat := run(false, traced), run(true, traced)
		if !reflect.DeepEqual(seq, bat) {
			t.Fatalf("traced=%v: batch diverged from sequential publishes:\n%+v\n%+v", traced, seq, bat)
		}
		if len(seq.order) != 8 || seq.delivered != 8 || seq.published != 4 {
			t.Fatalf("traced=%v: %d deliveries seen, %d counted, %d published; want 8, 8, 4", traced, len(seq.order), seq.delivered, seq.published)
		}
		for _, stamp := range seq.stamps {
			if stamp != 4 {
				t.Fatalf("delivered publish times %v, want all 4", seq.stamps)
			}
		}
	}
}

// Filters of both kinds share a shard: each message goes to its matching
// subscribers in subscription order, and the injected fault draws once per
// matching subscriber in that same order — never for one the filter already
// turned away. The expectation is replayed from an identically seeded RNG.
func TestMixedFiltersDeliverInOrderWithOneDrawPerMatch(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	sh := b.Acquire()
	const rate = 0.4
	rng, replay := sim.NewRand(42), sim.NewRand(42)
	sh.SetDrop(rate, rng)
	subs := []struct {
		filter  Filter
		matches func(Message) bool
	}{
		{TopicIs("t"), func(m Message) bool { return m.Topic == "t" }},
		{TopicAndField("t", "group", "G1"), func(m Message) bool { return m.Topic == "t" && m.Group == "G1" }},
		{TopicIs("u"), func(m Message) bool { return m.Topic == "u" }},
		{TopicAndField("t", "client", "C1"), func(m Message) bool { return m.Topic == "t" && m.Name == "C1" }},
		{TopicAndField("u", "prop", "load"), func(m Message) bool { return m.Topic == "u" && m.Prop == "load" }},
		{TopicIs("t"), func(m Message) bool { return m.Topic == "t" }},
	}
	type hit struct {
		sub int
		msg float64 // the message's V1, its serial number here
	}
	var got, want []hit
	for i, s := range subs {
		sh.Subscribe(bHost, s.filter, func(m Message) { got = append(got, hit{i, m.V1}) })
	}
	var dropped uint64
	for i := 0; i < 200; i++ {
		m := Message{
			Src: a, V1: float64(i),
			Topic: []string{"t", "u", "v"}[i%3],
			Group: []string{"G1", "G2"}[i%2],
			Name:  []string{"C1", "C2", "C3"}[i/3%3],
			Prop:  []string{"load", "latency"}[i/2%2],
		}
		for j, s := range subs {
			if !s.matches(m) {
				continue
			}
			if replay.Float64() < rate {
				dropped++
				continue
			}
			want = append(want, hit{j, m.V1})
		}
		if i%5 == 4 {
			sh.PublishBatch([]Message{m})
		} else {
			sh.Publish(m)
		}
	}
	k.RunAll(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries diverged from the replay:\n got %v\nwant %v", got, want)
	}
	if sh.Dropped() != dropped || dropped == 0 || len(want) == 0 {
		t.Fatalf("dropped %d, replay dropped %d, delivered %d", sh.Dropped(), dropped, len(want))
	}
	if rng.Uint64() != replay.Uint64() {
		t.Fatal("the shard drew from the drop RNG a different number of times than there were matching subscribers")
	}
}

// Steady-state publish → match → deliver allocates nothing: filters are
// values, delivery records and events are pooled.
func TestPublishDeliverAllocationFree(t *testing.T) {
	k, n, a, bHost, _ := rig()
	b := New(k, n)
	sh := b.Acquire()
	delivered := 0
	count := func(Message) { delivered++ }
	sh.Subscribe(bHost, TopicIs("q"), count)
	sh.Subscribe(bHost, TopicAndField("q", "group", "G1"), count)
	sh.Subscribe(a, TopicAndField("q", "group", "G2"), count)
	batch := []Message{
		{Topic: "q", Src: a, Group: "G1"},
		{Topic: "q", Src: a, Group: "G2"},
	}
	cycle := func() {
		sh.Publish(batch[0])
		sh.PublishBatch(batch)
		k.RunAll(0)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm publish/deliver cycle allocates %v times", avg)
	}
	if delivered != 102*6 {
		t.Fatalf("delivered %d, want %d", delivered, 102*6)
	}
}

// foldLog is a Folder recording each fold's arrival time and value.
type foldLog [][2]float64

func (l *foldLog) Fold(at sim.Time, m Message) { *l = append(*l, [2]float64{at, m.V1}) }

// A Folder on the publishing host takes each sample inside Publish, stamped
// with the time its delivery event would have carried, and costs no event:
// it sees the (time, value) sequence a plain handler on that host sees,
// reading the time from the kernel at delivery, under the same drop draws of
// the shard and the network. A Folder on another host is still delivered by
// an event, at the time a handler there would run.
func TestFoldSeesWhatDeliverySees(t *testing.T) {
	type outcome struct {
		local, remote             foldLog
		delivered, dropped, fired uint64
		msgs                      netsim.MsgStats
		shardDraw, netDraw        uint64
	}
	run := func(fold bool) outcome {
		k, n, a, bHost, _ := rig()
		b := New(k, n)
		sh := b.Acquire()
		shardRNG, netRNG := sim.NewRand(5), sim.NewRand(6)
		sh.SetDrop(0.2, shardRNG)
		n.SetDrop(0.2, netRNG)
		var o outcome
		if fold {
			sh.SubscribeFold(a, TopicIs("x"), &o.local)
			sh.SubscribeFold(bHost, TopicIs("x"), &o.remote)
		} else {
			sh.Subscribe(a, TopicIs("x"), func(m Message) { o.local = append(o.local, [2]float64{k.Now(), m.V1}) })
			sh.Subscribe(bHost, TopicIs("x"), func(m Message) { o.remote = append(o.remote, [2]float64{k.Now(), m.V1}) })
		}
		for i := 0; i < 300; i++ {
			// Samples 1e-5 s apart arrive after the next one is published.
			at := float64(i/2) * 0.37
			if i%2 == 1 {
				at += 5e-6
			}
			k.At(at, func() { sh.Publish(Message{Topic: "x", Src: a, V1: float64(i)}) })
		}
		k.RunAll(0)
		o.delivered, o.dropped, o.fired, o.msgs = sh.Delivered(), sh.Dropped(), k.Stats().Fired, n.MessageStats()
		o.shardDraw, o.netDraw = shardRNG.Uint64(), netRNG.Uint64()
		return o
	}
	fold, plain := run(true), run(false)
	if len(plain.local) == 0 || len(plain.remote) == 0 || plain.dropped == 0 || plain.msgs.Dropped == 0 {
		t.Fatalf("degenerate run: %d local, %d remote, %d shard drops, %d network drops",
			len(plain.local), len(plain.remote), plain.dropped, plain.msgs.Dropped)
	}
	if !reflect.DeepEqual(fold.local, plain.local) {
		t.Fatalf("same-host folds differ from deliveries:\nfold  %v\nplain %v", fold.local, plain.local)
	}
	if !reflect.DeepEqual(fold.remote, plain.remote) {
		t.Fatalf("remote folds differ from deliveries:\nfold  %v\nplain %v", fold.remote, plain.remote)
	}
	if fold.delivered != plain.delivered || fold.dropped != plain.dropped || fold.msgs != plain.msgs {
		t.Fatalf("counters differ: fold delivered %d dropped %d %+v, plain delivered %d dropped %d %+v",
			fold.delivered, fold.dropped, fold.msgs, plain.delivered, plain.dropped, plain.msgs)
	}
	if fold.shardDraw != plain.shardDraw || fold.netDraw != plain.netDraw {
		t.Fatal("the fold drew from the drop RNGs a different number of times than the deliveries")
	}
	if saved := plain.fired - fold.fired; saved != uint64(len(plain.local)) {
		t.Fatalf("the fold saved %d events, want one per same-host sample (%d)", saved, len(plain.local))
	}
}

// A fold allocates nothing, as a delivery does not.
func TestPublishFoldAllocationFree(t *testing.T) {
	k, n, a, _, _ := rig()
	sh := New(k, n).Acquire()
	var l foldLog
	sh.SubscribeFold(a, TopicIs("q"), &l)
	publish := func() {
		if len(l) == cap(l) {
			l = l[:0]
		}
		sh.Publish(Message{Topic: "q", Src: a, V1: 1})
	}
	l = make(foldLog, 0, 64)
	if avg := testing.AllocsPerRun(100, publish); avg != 0 {
		t.Fatalf("a publish to a same-host Folder allocates %v times", avg)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events scheduled for same-host folds", k.Pending())
	}
}
