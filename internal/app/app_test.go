package app

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// rig builds a 2-router network: clients at r1, queue+servers at r2.
type rig struct {
	k                   *sim.Kernel
	net                 *netsim.Network
	sys                 *System
	cHost, qHost, sHost netsim.NodeID
	l1, l2              netsim.LinkID
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	cHost := net.AddHost("chost")
	r1 := net.AddRouter("r1")
	r2 := net.AddRouter("r2")
	qHost := net.AddHost("qhost")
	sHost := net.AddHost("shost")
	l1 := net.Connect(cHost, r1, 10e6, 1e-3)
	net.Connect(r1, r2, 10e6, 1e-3)
	l2 := net.Connect(r2, qHost, 10e6, 1e-3)
	net.Connect(r2, sHost, 10e6, 1e-3)
	sys := New(k, net, qHost)
	if err := sys.CreateQueue("G1"); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, net: net, sys: sys, cHost: cHost, qHost: qHost, sHost: sHost, l1: l1, l2: l2}
}

// numberSends numbers the requests sys's clients send, from 1 in send order,
// and returns the number a record carries. Records are reused, so a request
// is known by the number its record took at the send, read while a callback
// holds it.
func numberSends(sys *System) func(*Request) uint64 {
	ids := map[*Request]uint64{}
	var n uint64
	for _, c := range sys.clientList {
		c.OnSend = append(c.OnSend, func(r *Request) {
			n++
			ids[r] = n
		})
	}
	return func(r *Request) uint64 { return ids[r] }
}

func (r *rig) addActiveServer(t *testing.T, name string) *Server {
	t.Helper()
	srv := r.sys.AddServer(name, r.sHost, "G1", 0.05, 0)
	if err := r.sys.Activate(name); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestSingleRequestRoundTrip(t *testing.T) {
	r := newRig(t)
	r.addActiveServer(t, "S1")
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	var got []Response
	cli.OnResponse = append(cli.OnResponse, func(resp Response) { got = append(got, resp) })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	r.k.RunAll(0)
	if len(got) != 1 {
		t.Fatalf("responses=%d", len(got))
	}
	resp := got[0]
	// Latency = request msg + pull msg + 0.05 service + 20KB transfer: well
	// under a second on an idle 10 Mbps path, but strictly positive.
	if resp.Latency <= 0.05 || resp.Latency > 0.5 {
		t.Fatalf("latency=%v", resp.Latency)
	}
	if cli.Responses() != 1 {
		t.Fatal("client counter")
	}
}

func TestFIFOOrderAndQueueGrowth(t *testing.T) {
	r := newRig(t)
	srv := r.sys.AddServer("S1", r.sHost, "G1", 1.0, 0) // slow: 1 s/request
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	id := numberSends(r.sys)
	var order []uint64
	cli.OnResponse = append(cli.OnResponse, func(resp Response) { order = append(order, id(resp.Req)) })
	for i := 0; i < 5; i++ {
		r.k.At(0.001*float64(i), func() { r.sys.sendRequest(cli) })
	}
	// All 5 arrive within ~10 ms; the single server serves them in ~5 s.
	r.k.Run(0.5)
	if q := r.sys.QueueLen("G1"); q < 3 {
		t.Fatalf("queue should back up, len=%d", q)
	}
	r.k.RunAll(0)
	if len(order) != 5 {
		t.Fatalf("responses=%d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if srv.Served() != 5 {
		t.Fatalf("served=%d", srv.Served())
	}
}

func TestTwoServersShareQueue(t *testing.T) {
	r := newRig(t)
	r.addActiveServer(t, "S1")
	s2 := r.sys.AddServer("S2", r.sHost, "G1", 0.05, 0)
	if err := r.sys.Activate("S2"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	n := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { n++ })
	for i := 0; i < 10; i++ {
		r.k.At(0, func() { r.sys.sendRequest(cli) })
	}
	r.k.RunAll(0)
	if n != 10 {
		t.Fatalf("responses=%d", n)
	}
	if s2.Served() == 0 {
		t.Fatal("second server never pulled work")
	}
}

func TestPoissonArrivalRate(t *testing.T) {
	r := newRig(t)
	r.addActiveServer(t, "S1")
	cli := r.sys.AddClient("C1", r.cHost, "G1", 5.0, sim.NewRand(42))
	n := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { n++ })
	r.sys.Start()
	r.k.Run(200)
	r.sys.StopClients()
	r.k.RunAll(0)
	rate := float64(n) / 200
	if math.Abs(rate-5.0) > 0.5 {
		t.Fatalf("observed rate %v, want ~5", rate)
	}
}

func TestDeactivateFinishesCurrentRequest(t *testing.T) {
	r := newRig(t)
	srv := r.sys.AddServer("S1", r.sHost, "G1", 1.0, 0)
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	done := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { done++ })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	r.k.At(0.5, func() {
		if err := r.sys.Deactivate("S1"); err != nil {
			t.Error(err)
		}
	})
	r.k.RunAll(0)
	if done != 1 {
		t.Fatalf("done=%d: deactivation should finish in-flight request only", done)
	}
	if srv.Active() {
		t.Fatal("server still active")
	}
	if r.sys.QueueLen("G1") != 1 {
		t.Fatalf("queue=%d, want 1 stranded request", r.sys.QueueLen("G1"))
	}
}

func TestActivateDrainsBacklog(t *testing.T) {
	r := newRig(t)
	r.sys.AddServer("S1", r.sHost, "G1", 0.05, 0) // inactive
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	n := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { n++ })
	for i := 0; i < 4; i++ {
		r.k.At(0, func() { r.sys.sendRequest(cli) })
	}
	r.k.Run(5)
	if n != 0 || r.sys.QueueLen("G1") != 4 {
		t.Fatalf("n=%d queue=%d before activation", n, r.sys.QueueLen("G1"))
	}
	r.k.At(6, func() {
		if err := r.sys.Activate("S1"); err != nil {
			t.Error(err)
		}
	})
	r.k.RunAll(0)
	if n != 4 {
		t.Fatalf("backlog not drained: n=%d", n)
	}
}

func TestMoveClientRoutesNewRequests(t *testing.T) {
	r := newRig(t)
	if err := r.sys.CreateQueue("G2"); err != nil {
		t.Fatal(err)
	}
	r.addActiveServer(t, "S1")
	s2 := r.sys.AddServer("S2", r.sHost, "G2", 0.05, 0)
	if err := r.sys.Activate("S2"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	n := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { n++ })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	r.k.At(1, func() {
		if err := r.sys.MoveClient("C1", "G2"); err != nil {
			t.Error(err)
		}
	})
	r.k.At(2, func() { r.sys.sendRequest(cli) })
	r.k.RunAll(0)
	if n != 2 {
		t.Fatalf("responses=%d", n)
	}
	if s2.Served() != 1 {
		t.Fatalf("S2 served=%d, want the post-move request", s2.Served())
	}
}

func TestConnectServerRules(t *testing.T) {
	r := newRig(t)
	r.sys.AddServer("S1", r.sHost, "G1", 0.05, 0)
	if err := r.sys.CreateQueue("G2"); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.ConnectServer("S1", "G2"); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.ConnectServer("S1", "G1"); err == nil {
		t.Fatal("re-pointing an active server should fail")
	}
	if err := r.sys.ConnectServer("S1", "nope"); err == nil {
		t.Fatal("unknown queue should fail")
	}
	if err := r.sys.MoveClient("nope", "G1"); err == nil {
		t.Fatal("unknown client should fail")
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	r := newRig(t)
	r.addActiveServer(t, "S1")
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	var lat []float64
	cli.OnResponse = append(cli.OnResponse, func(resp Response) { lat = append(lat, resp.Latency) })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	// Crush the client's access link before the second request.
	r.k.At(5, func() { r.net.SetBackgroundBoth(r.l1, 10e6-2e3) }) // ~2 Kbps left
	r.k.At(6, func() { r.sys.sendRequest(cli) })
	r.k.RunAll(0)
	if len(lat) != 2 {
		t.Fatalf("lat=%v", lat)
	}
	if lat[1] < 10*lat[0] || lat[1] < 2.0 {
		t.Fatalf("congested latency %v should dwarf idle latency %v", lat[1], lat[0])
	}
}

// TestCrashServerDropsWork: a crash loses the request the server had taken.
// S1 serves for 1 s; the first request is taken at once, S1 crashes at 0.1
// and is reactivated at 0.2, and two more requests follow at 0.3 and 0.4.
// The first is dropped when its service would have ended, not answered, and
// S1 serves the other two one after the other: still busy with the third at
// 1.6, where a server freed by the lost request's reply would read idle.
func TestCrashServerDropsWork(t *testing.T) {
	r := newRig(t)
	srv := r.sys.AddServer("S1", r.sHost, "G1", 1.0, 0)
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	n := 0
	cli.OnResponse = append(cli.OnResponse, func(Response) { n++ })
	id := numberSends(r.sys)
	var dropped []uint64
	r.sys.OnDrop = append(r.sys.OnDrop, func(req *Request) { dropped = append(dropped, id(req)) })
	r.k.At(0, func() { r.sys.sendRequest(cli) })
	r.k.At(0.1, func() {
		if err := r.sys.CrashServer("S1"); err != nil {
			t.Error(err)
		}
		if srv.Active() || srv.Busy() {
			t.Error("crashed server still active or busy")
		}
	})
	r.k.At(0.2, func() {
		if err := r.sys.Activate("S1"); err != nil {
			t.Error(err)
		}
	})
	r.k.At(0.3, func() { r.sys.sendRequest(cli) })
	r.k.At(0.4, func() { r.sys.sendRequest(cli) })
	r.k.At(1.6, func() {
		if !srv.Busy() {
			t.Error("S1 idle at 1.6 with a request still in service")
		}
	})
	r.k.Run(10)
	if n != 2 || srv.Served() != 2 {
		t.Fatalf("%d responses and %d served after the crash, want 2 and 2", n, srv.Served())
	}
	if got := r.sys.DroppedRequests(); got != 1 || len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("DroppedRequests = %d, OnDrop saw %v; want the crashed request 1 alone", got, dropped)
	}
}

// A crash while the pull is on its way to the server: the pull and the
// service are one event, so the request is dropped at the end of its service
// time, once. S1 is reactivated at once and takes request 2 while request 3
// waits; the lost request's drop leaves S1 busy with request 2 and request 3
// queued, its record goes back on the free list, and the latency observer
// counts it answered no longer.
func TestCrashServerDuringPull(t *testing.T) {
	r := newRig(t)
	srv := r.sys.AddServer("S1", r.sHost, "G1", 1.0, 0)
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	obs := ObserveLatency(r.sys, []string{"C1"}, 30)
	id := numberSends(r.sys)
	type drop struct {
		id                  uint64
		at                  float64
		busy                bool
		queued, outstanding int
	}
	var drops []drop
	pooledBefore, pooledAfter := -1, -1
	r.sys.OnDrop = append(r.sys.OnDrop, func(req *Request) {
		drops = append(drops, drop{id(req), r.k.Now(), srv.Busy(), r.sys.QueueLen("G1"), obs.Outstanding()})
		pooledBefore = r.sys.PooledRequests()
		r.k.At(r.k.Now(), func() { pooledAfter = r.sys.PooledRequests() })
	})
	r.sys.sendRequest(cli)
	// The server is booked when the request reaches the queue machine, and
	// the pull leaves then: a few milliseconds of flight.
	for !srv.Busy() {
		r.k.Run(r.k.Now() + 1e-4)
	}
	took := r.k.Now()
	if err := r.sys.CrashServer("S1"); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	r.sys.sendRequest(cli)
	r.sys.sendRequest(cli)
	if n := obs.Outstanding(); n != 3 {
		t.Fatalf("outstanding %d after three sends, want 3", n)
	}
	r.k.Run(10)
	if got := r.sys.DroppedRequests(); got != 1 || len(drops) != 1 {
		t.Fatalf("DroppedRequests = %d, OnDrop saw %v; want one drop", got, drops)
	}
	d := drops[0]
	if d.id != 1 || d.at < took+1.0 || d.at > took+1.1 {
		t.Fatalf("drop %+v: want request 1 at the end of its service, about %v", d, took+1.0)
	}
	if !d.busy || d.queued != 1 || d.outstanding != 2 {
		t.Fatalf("at the drop S1 busy=%v, %d queued, %d outstanding; want S1 busy with request 2, request 3 queued, 2 outstanding", d.busy, d.queued, d.outstanding)
	}
	if pooledAfter != pooledBefore+1 {
		t.Fatalf("free records %d before the drop and %d after, want one more", pooledBefore, pooledAfter)
	}
	if cli.Responses() != 2 || srv.Served() != 2 || srv.Busy() || obs.Outstanding() != 0 {
		t.Fatalf("%d responses, %d served, busy=%v, %d outstanding; want 2, 2, idle, 0", cli.Responses(), srv.Served(), srv.Busy(), obs.Outstanding())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, float64) {
		k := sim.NewKernel()
		net := netsim.New(k)
		a := net.AddHost("a")
		b := net.AddHost("b")
		q := net.AddHost("q")
		rt := net.AddRouter("r")
		net.Connect(a, rt, 10e6, 1e-3)
		net.Connect(b, rt, 10e6, 1e-3)
		net.Connect(q, rt, 10e6, 1e-3)
		sys := New(k, net, q)
		_ = sys.CreateQueue("G")
		sys.AddServer("S", b, "G", 0.05, 1e-6)
		_ = sys.Activate("S")
		cli := sys.AddClient("C", a, "G", 3, sim.NewRand(7))
		total := 0.0
		cli.OnResponse = append(cli.OnResponse, func(resp Response) { total += resp.Latency })
		sys.Start()
		k.Run(100)
		sys.StopClients()
		k.RunAll(0)
		return cli.Responses(), total
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
	if n1 < 250 {
		t.Fatalf("too few responses: %d", n1)
	}
}

// threeHosts is the smallest network a request crosses end to end: client,
// queue machine and server on one router.
func threeHosts(t *testing.T) (*sim.Kernel, *System, *Client) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r := net.AddRouter("r")
	var hosts [3]netsim.NodeID
	for i, name := range []string{"chost", "qhost", "shost"} {
		hosts[i] = net.AddHost(name)
		net.Connect(hosts[i], r, 10e6, 1e-3)
	}
	sys := New(k, net, hosts[1])
	if err := sys.CreateQueue("G1"); err != nil {
		t.Fatal(err)
	}
	sys.AddServer("S1", hosts[2], "G1", 0.05, 0)
	if err := sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	return k, sys, sys.AddClient("C1", hosts[0], "G1", 0, sim.NewRand(1))
}

// A warm request — send, enqueue, pull and service, reply transfer, response
// — allocates nothing: its record, events, flow and callbacks are all
// recycled. Nor does it with a latency observer attached and sampling: the
// outstanding list lives in the request records, and the averaging window
// reuses its array once it has held a window's worth of samples (here 1 s,
// about 17). Nor does a steady cycle whose requests are all dropped: a
// backlog queued where no server pulls, dropped by moving the client to
// another such group and back.
func TestRequestCycleAllocationFree(t *testing.T) {
	for _, observed := range []bool{false, true} {
		k, sys, cli := threeHosts(t)
		id := numberSends(sys)
		answered := 0
		var lastID uint64
		cli.OnResponse = append(cli.OnResponse, func(r Response) {
			answered++
			lastID = id(r.Req)
		})
		cycle := func() {
			sys.sendRequest(cli)
			k.RunAll(0)
		}
		if observed {
			obs := ObserveLatency(sys, []string{"C1"}, 1)
			cycle = func() {
				sys.sendRequest(cli)
				if obs.Outstanding() != 1 {
					t.Fatalf("mid-flight: outstanding %d", obs.Outstanding())
				}
				k.RunAll(0)
				if v, ok := obs.Sample("C1", k.Now()); obs.Outstanding() != 0 || !ok || v <= 0 {
					t.Fatalf("answered: sample (%v, %v), outstanding %d", v, ok, obs.Outstanding())
				}
			}
		}
		const warm = 49
		for i := 0; i < warm; i++ {
			cycle()
		}
		if len(sys.freeReqs) != 1 {
			t.Fatalf("observed=%v: delivered request was not recycled (free list %d)", observed, len(sys.freeReqs))
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("observed=%v: warm request cycle allocates %v times", observed, avg)
		}
		if want := warm + 201; answered != want || lastID != uint64(want) {
			t.Fatalf("observed=%v: answered=%d last id=%d, want %d twice: a recycled record must carry its new request", observed, answered, lastID, want)
		}
	}

	for _, observed := range []bool{false, true} {
		k, sys, cli := threeHosts(t)
		for _, g := range []string{"G2", "G3"} {
			if err := sys.CreateQueue(g); err != nil {
				t.Fatal(err)
			}
		}
		var obs *LatencyObserver
		if observed {
			obs = ObserveLatency(sys, []string{"C1"}, 1)
		}
		const backlog = 4
		// fill queues a backlog on the client's group and moves the client
		// to group to, dropping it.
		fill := func(to string) {
			for i := 0; i < backlog; i++ {
				sys.sendRequest(cli)
			}
			k.RunAll(0)
			if n := sys.QueueLen(cli.Group); n != backlog {
				t.Fatalf("observed=%v: %d queued on %s, want %d", observed, n, cli.Group, backlog)
			}
			if err := sys.MoveClient("C1", to); err != nil {
				t.Fatal(err)
			}
		}
		cycle := func() {
			fill("G3")
			fill("G2")
		}
		if err := sys.MoveClient("C1", "G2"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			cycle()
		}
		if n := sys.PooledRequests(); n != backlog {
			t.Fatalf("observed=%v: %d free records after the warm-up, want the backlog's %d", observed, n, backlog)
		}
		dropped := sys.DroppedRequests()
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Fatalf("observed=%v: warm drop cycle allocates %v times", observed, avg)
		}
		if got, want := sys.DroppedRequests()-dropped, uint64(101*2*backlog); got != want || cli.Responses() != 0 {
			t.Fatalf("observed=%v: %d dropped and %d answered in the timed cycles, want %d and 0", observed, got, cli.Responses(), want)
		}
		if observed && obs.Outstanding() != 0 {
			t.Fatalf("dropped requests still outstanding: %d", obs.Outstanding())
		}
	}
}

// StopClients is the end of a system's sending life: it must let go of the
// free records and not collect the ones still in flight.
func TestStopClientsReleasesFreeRequests(t *testing.T) {
	k, sys, cli := threeHosts(t)
	for i := 0; i < 4; i++ {
		sys.sendRequest(cli)
	}
	k.RunAll(0)
	if sys.PooledRequests() == 0 {
		t.Fatal("no records recycled while running")
	}
	sys.sendRequest(cli) // in flight across the stop
	sys.StopClients()
	k.RunAll(0)
	if cli.Responses() != 5 {
		t.Fatalf("responses=%d, want 5", cli.Responses())
	}
	if n := sys.PooledRequests(); n != 0 {
		t.Fatalf("stopped system holds %d free requests", n)
	}
}

// RemoveServer while the server is mid-request: the reply completes against
// the detached handle, which must never be handed work again, and the name
// and handle lists stay parallel so later scans and a re-registration under
// the same name see a consistent system.
func TestRemoveServerWithRequestInFlight(t *testing.T) {
	r := newRig(t)
	s1 := r.sys.AddServer("S1", r.sHost, "G1", 1.0, 0)
	s2 := r.sys.AddServer("S2", r.sHost, "G1", 1.0, 0)
	s3 := r.sys.AddServer("S3", r.sHost, "G1", 1.0, 0)
	for _, name := range []string{"S1", "S2"} {
		if err := r.sys.Activate(name); err != nil {
			t.Fatal(err)
		}
	}
	cli := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	for i := 0; i < 4; i++ {
		r.k.At(0, func() { r.sys.sendRequest(cli) })
	}
	r.k.Run(0.5) // S1 and S2 each mid-service, two requests waiting
	if !s1.Busy() || !s2.Busy() || r.sys.QueueLen("G1") != 2 {
		t.Fatalf("setup: busy=%v,%v queue=%d", s1.Busy(), s2.Busy(), r.sys.QueueLen("G1"))
	}
	if err := r.sys.RemoveServer("S2"); err != nil {
		t.Fatal(err)
	}
	consistent := func(want ...*Server) {
		t.Helper()
		names := r.sys.Servers()
		if len(names) != len(want) || len(r.sys.serverList) != len(want) {
			t.Fatalf("servers %v / %d handles, want %d", names, len(r.sys.serverList), len(want))
		}
		for i, srv := range want {
			if names[i] != srv.Name || r.sys.serverList[i] != srv || r.sys.Server(srv.Name) != srv {
				t.Fatalf("position %d: name %q handle %p, want %q %p", i, names[i], r.sys.serverList[i], srv.Name, srv)
			}
		}
	}
	consistent(s1, s3)
	if first, n := r.sys.ActiveServers("G1"); first != s1 || n != 1 {
		t.Fatalf("active after removal: %v, %d", first, n)
	}
	if r.sys.Server("S2") != nil || s2.Active() || !s2.Busy() {
		t.Fatalf("detached handle: registered=%v active=%v busy=%v", r.sys.Server("S2") != nil, s2.Active(), s2.Busy())
	}
	// The same name comes back (the autoscaler reuses replica names) while
	// the old handle is still replying.
	again := r.sys.AddServer("S2", r.sHost, "G1", 1.0, 0)
	consistent(s1, s3, again)
	if err := r.sys.Activate("S2"); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if cli.Responses() != 4 {
		t.Fatalf("responses=%d, want all 4 (the in-flight one included)", cli.Responses())
	}
	if s2.Served() != 1 || s2.Busy() || s2.Active() {
		t.Fatalf("detached handle served %d, busy=%v active=%v: it must finish its request and take no other", s2.Served(), s2.Busy(), s2.Active())
	}
	if s1.Served()+again.Served() != 3 || s3.Served() != 0 {
		t.Fatalf("served S1=%d new S2=%d S3=%d", s1.Served(), again.Served(), s3.Served())
	}
	if err := r.sys.RemoveServer("S2"); err != nil {
		t.Fatal(err)
	}
	consistent(s1, s3)
	if err := r.sys.RemoveServer("S2"); err == nil {
		t.Fatal("removing an unregistered server must fail")
	}
}

// A client or server registered before its group's queue exists is bound to
// the queue when it is created.
func TestQueueCreatedAfterItsProcesses(t *testing.T) {
	r := newRig(t)
	cli := r.sys.AddClient("C1", r.cHost, "G2", 0, sim.NewRand(1))
	r.sys.AddServer("S1", r.sHost, "G2", 0.05, 0)
	r.k.At(0, func() { r.sys.sendRequest(cli) }) // no queue yet: travels, then dropped
	r.k.RunAll(0)
	if r.sys.DroppedRequests() != 1 {
		t.Fatalf("dropped=%d, want 1", r.sys.DroppedRequests())
	}
	r.sys.sendRequest(cli) // the queue appears while this one travels
	if err := r.sys.CreateQueue("G2"); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	r.k.At(r.k.Now(), func() { r.sys.sendRequest(cli) })
	r.k.RunAll(0)
	if cli.Responses() != 2 || r.sys.DroppedRequests() != 1 {
		t.Fatalf("responses=%d dropped=%d, want 2 and 1", cli.Responses(), r.sys.DroppedRequests())
	}
}

// ActiveServers answers from its table for as long as MemberRev holds
// still. Seeded runs register, remove, activate, deactivate (deferred
// while a server is busy), crash, re-point and re-host servers, create
// queues, move the client and let requests flow; after every step the answer
// for every group name, one that no server names included, is a scan's.
func TestActiveServersMatchesScan(t *testing.T) {
	scan := func(sys *System, group string) (first *Server, n int) {
		for _, srv := range sys.serverList {
			if srv.active && srv.Group == group {
				if n == 0 {
					first = srv
				}
				n++
			}
		}
		return first, n
	}
	groups := []string{"G1", "G2", "G3", "nobody"}
	var hits, recounts int
	for seed := uint64(1); seed <= 20; seed++ {
		r := newRig(t)
		rng := sim.NewRand(seed)
		cli := r.sys.AddClient("C1", r.cHost, "G1", 0, rng.Fork("client"))
		var names []string
		pick := func() string { return names[rng.Intn(len(names))] }
		for step := 0; step < 300; step++ {
			g := groups[rng.Intn(3)]
			op := rng.Intn(9)
			if len(names) == 0 {
				op = 0
			}
			// Errors (activating an active server, re-pointing one, a
			// group without a queue) leave the system as it was.
			switch op {
			case 0:
				name := fmt.Sprintf("S%d", step)
				r.sys.AddServer(name, r.sHost, g, 0.05, 0)
				names = append(names, name)
			case 1:
				i := rng.Intn(len(names))
				if err := r.sys.RemoveServer(names[i]); err != nil {
					t.Fatal(err)
				}
				names = slices.Delete(names, i, i+1)
			case 2:
				_ = r.sys.Activate(pick())
			case 3:
				_ = r.sys.Deactivate(pick())
			case 4:
				_ = r.sys.ConnectServer(pick(), g)
			case 5:
				_ = r.sys.CrashServer(pick())
			case 6:
				if r.sys.queueOf(g) == nil {
					_ = r.sys.CreateQueue(g)
				} else {
					_ = r.sys.MoveClient("C1", g)
				}
			case 7:
				hosts := map[string]netsim.NodeID{}
				for _, name := range names {
					hosts[name] = r.sHost
				}
				if err := r.sys.Rehost(r.qHost, hosts, map[string]netsim.NodeID{"C1": r.cHost}); err != nil {
					t.Fatal(err)
				}
			case 8:
				for i := rng.Intn(4); i >= 0; i-- {
					r.k.At(r.k.Now(), func() { r.sys.sendRequest(cli) })
				}
				r.k.Run(r.k.Now() + 0.2*rng.Float64())
			}
			for _, g := range groups {
				if r.sys.activeRev == r.sys.memberRev {
					hits++
				} else {
					recounts++
				}
				first, n := r.sys.ActiveServers(g)
				if wf, wn := scan(r.sys, g); first != wf || n != wn {
					t.Fatalf("seed %d step %d (op %d): ActiveServers(%s) = %v, %d; a scan finds %v, %d", seed, step, op, g, first, n, wf, wn)
				}
			}
		}
	}
	t.Logf("%d answers from the table, %d recounts", hits, recounts)
	if hits == 0 || recounts == 0 {
		t.Fatal("the seeds no longer reach both a kept answer and a recount")
	}
}
