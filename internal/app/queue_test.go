package app

import (
	"testing"
	"unsafe"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// A request record fits one 64-byte cache line: every request the
// application sends allocates or recycles one. A group's record, which
// carries the group's name for its requests, stays in the 48-byte size class.
func TestRequestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 64 {
		t.Fatalf("Request is %d bytes, over a 64-byte cache line", size)
	}
	if size := unsafe.Sizeof(queue{}); size > 48 {
		t.Fatalf("queue is %d bytes, over the 48-byte size class", size)
	}
}

// Ops of FuzzRequestQueue: one byte each, op = b%8 and arg = b/8.
const (
	qopSend       = iota // client arg%4 sends a request (it travels)
	qopArrive            // in-flight request arg%len arrives at the queue machine
	qopFinish            // server arg%4's oldest crashed request's reply lands, else its request's
	qopActivate          // Activate server arg%4
	qopDeactivate        // Deactivate server arg%4
	qopCrash             // CrashServer server arg%4
	qopMove              // MoveClient client arg%4 to group arg/4%3
	qopBurst             // client arg%4 sends and its request arrives at once; arg 31 creates G3
)

func qop(op, arg int) byte { return byte(op + 8*arg) }

// FuzzRequestQueue drives the queue machine's rings through sends,
// arrivals, reply completions, server activate/deactivate/crash, client
// moves and a queue created late, and after every step checks them against
// a reference that keeps each queue as a plain slice and each server as
// three flags. The kernel never runs: an arrival fires enqueueFn and a
// completion replyDoneFn by hand, so the step order is the input's. After
// every step:
//   - each request the reference hands to a server was served by that
//     server, and every request still waiting is unserved (the same
//     service order);
//   - each ring holds the reference's FIFO, oldest at head, with every slot
//     outside that span nil, and its size is a power of two;
//   - QueueLen of every group, DroppedRequests and the dropped requests, in
//     order, match; a request dropped for want of a queue finds its group's
//     record unprovisioned, one dropped by a move or a crash its queue.
//
// A crashed server's request is not forgotten: its reply still lands, on a
// later finish of that server, and is dropped there without touching the
// server, which may be serving again by then.
//
// Records are reused once answered or dropped, so the reference knows a
// request by the number it was given at the send (numberSends) and records a
// drop as that number and whether the request had reached a queue, read
// while the callback holds the record.
func FuzzRequestQueue(f *testing.F) {
	// burst is n requests sent and arrived at once, from clis in turn.
	burst := func(n int, clis ...int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, qop(qopBurst, clis[i%len(clis)]))
		}
		return b
	}
	// A backlog of 40 with no server; one server takes 30 of it, so the
	// head sits at 30 when 60 more arrive: the tail wraps and the ring
	// grows while wrapped. Draining it then walks the head round the
	// grown ring.
	wrap := burst(40, 0)
	wrap = append(wrap, qop(qopActivate, 0))
	for i := 0; i < 30; i++ {
		wrap = append(wrap, qop(qopFinish, 0))
	}
	wrap = append(wrap, burst(60, 1)...)
	for i := 0; i < 100; i++ {
		wrap = append(wrap, qop(qopFinish, 0), qop(qopBurst, i%2), qop(qopFinish, 0))
	}
	f.Add(wrap)
	// Two clients interleaved on one queue; two servers take the first 12,
	// leaving the head at 12 of 16, and 9 more wrap the tail. Moving each
	// client away filters the ring across its wrap point.
	move := burst(12, 0, 1)
	move = append(move, qop(qopActivate, 0), qop(qopActivate, 1))
	for i := 0; i < 5; i++ {
		move = append(move, qop(qopFinish, 0), qop(qopFinish, 1))
	}
	move = append(move, burst(9, 0, 1)...)
	move = append(move, qop(qopMove, 0+4*1), qop(qopFinish, 0), qop(qopMove, 1+4*1))
	f.Add(move)
	// A queue created while a request travels, which a move then drops
	// from it; requests in flight across a move; server churn.
	// A crash with the server's request in service, the server reactivated
	// and two more requests taken one at a time: the crashed request's
	// reply lands while the second is in service and is dropped, leaving
	// the server busy.
	f.Add([]byte{
		qop(qopActivate, 0), qop(qopBurst, 0), qop(qopCrash, 0), qop(qopActivate, 0),
		qop(qopBurst, 0), qop(qopBurst, 0), qop(qopFinish, 0), qop(qopFinish, 0),
		qop(qopFinish, 0),
	})
	f.Add([]byte{
		qop(qopSend, 3), qop(qopSend, 3), qop(qopArrive, 0), qop(qopBurst, 31),
		qop(qopArrive, 0), qop(qopMove, 3), qop(qopMove, 3+4*2), qop(qopSend, 3),
		qop(qopArrive, 0), qop(qopActivate, 3), qop(qopSend, 0), qop(qopMove, 0+4*2),
		qop(qopArrive, 0), qop(qopActivate, 0), qop(qopDeactivate, 0), qop(qopBurst, 0),
		qop(qopFinish, 0), qop(qopBurst, 0), qop(qopActivate, 0), qop(qopCrash, 0),
		qop(qopBurst, 0), qop(qopActivate, 0), qop(qopFinish, 3), qop(qopFinish, 0),
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Each step checks every waiting request, so an input costs its
		// length squared; 512 steps reach a ring of 512 from empty.
		ops = ops[:min(len(ops), 512)]
		k := sim.NewKernel()
		net := netsim.New(k)
		r := net.AddRouter("r")
		var hosts [3]netsim.NodeID
		for i, name := range []string{"chost", "qhost", "shost"} {
			hosts[i] = net.AddHost(name)
			net.Connect(hosts[i], r, 10e6, 1e-3)
		}
		sys := New(k, net, hosts[1])
		groups := []string{"G1", "G2", "G3"}
		for _, g := range groups[:2] {
			if err := sys.CreateQueue(g); err != nil {
				t.Fatal(err)
			}
		}
		// S4 and C4 belong to G3, which has no queue until an op creates it.
		srvs := []*Server{
			sys.AddServer("S1", hosts[2], "G1", 0.05, 0),
			sys.AddServer("S2", hosts[2], "G1", 0.05, 0),
			sys.AddServer("S3", hosts[2], "G2", 0.05, 0),
			sys.AddServer("S4", hosts[2], "G3", 0.05, 0),
		}
		clis := []*Client{
			sys.AddClient("C1", hosts[0], "G1", 0, sim.NewRand(1)),
			sys.AddClient("C2", hosts[0], "G1", 0, sim.NewRand(2)),
			sys.AddClient("C3", hosts[0], "G2", 0, sim.NewRand(3)),
			sys.AddClient("C4", hosts[0], "G3", 0, sim.NewRand(4)),
		}
		id := numberSends(sys)
		type dropRec struct {
			id     uint64
			queued bool // dropped after reaching a queue
		}
		var dropped []dropRec
		sys.OnDrop = append(sys.OnDrop, func(req *Request) { dropped = append(dropped, dropRec{id(req), req.q.provisioned()}) })

		// The reference.
		type refServer struct {
			active, busy, stopped bool
			req                   *Request
			crashed               []*Request // taken before a crash, replies yet to land
		}
		ref := map[*Server]*refServer{}
		for _, srv := range srvs {
			ref[srv] = &refServer{}
		}
		fifo := map[string][]*Request{}
		type sent struct {
			req   *Request
			group string // the client's group at the send
		}
		var (
			inflight   []sent
			served     []*Request // handed to a server this step
			refDropped []dropRec
		)
		dispatch := func(g string) {
			for len(fifo[g]) > 0 {
				var idle *Server
				for _, srv := range srvs {
					if rs := ref[srv]; srv.Group == g && rs.active && !rs.busy {
						idle = srv
						break
					}
				}
				if idle == nil {
					return
				}
				req := fifo[g][0]
				fifo[g] = fifo[g][1:]
				ref[idle].busy, ref[idle].req = true, req
				served = append(served, req)
			}
		}
		hasQueue := func(g string) bool { return sys.queueOf(g) != nil }
		for _, c := range clis {
			c.OnSend = append(c.OnSend, func(req *Request) { inflight = append(inflight, sent{req, c.Group}) })
		}

		for step, b := range ops {
			op, arg := int(b%8), int(b/8)
			served = served[:0]
			if op == qopBurst && arg == 31 {
				if !hasQueue("G3") {
					if err := sys.CreateQueue("G3"); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			switch op {
			case qopSend, qopBurst:
				sys.sendRequest(clis[arg%4]) // OnSend appends it to inflight
				if op == qopSend {
					break
				}
				arg = len(inflight) - 1
				fallthrough
			case qopArrive:
				if len(inflight) == 0 {
					break
				}
				i := arg % len(inflight)
				req, g := inflight[i].req, inflight[i].group
				inflight = append(inflight[:i], inflight[i+1:]...)
				if req.Group() != g {
					t.Fatalf("step %d: request %d routed to %s, sent to %s", step, id(req), req.Group(), g)
				}
				if !hasQueue(g) {
					refDropped = append(refDropped, dropRec{id(req), false})
				} else {
					fifo[g] = append(fifo[g], req)
					dispatch(g)
				}
				enqueueFn(req)
			case qopFinish:
				srv := srvs[arg%4]
				rs := ref[srv]
				if len(rs.crashed) > 0 {
					req := rs.crashed[0]
					rs.crashed = rs.crashed[1:]
					refDropped = append(refDropped, dropRec{id(req), true})
					replyDoneFn(req)
					break
				}
				if !rs.busy {
					break
				}
				req := rs.req
				rs.busy, rs.req = false, nil
				if rs.stopped {
					rs.active, rs.stopped = false, false
				}
				if rs.active && hasQueue(srv.Group) {
					dispatch(srv.Group)
				}
				replyDoneFn(req)
			case qopActivate:
				srv := srvs[arg%4]
				rs := ref[srv]
				wantErr := rs.active
				if !rs.active {
					rs.active, rs.stopped = true, false
					if hasQueue(srv.Group) {
						dispatch(srv.Group)
					}
				}
				if err := sys.Activate(srv.Name); (err != nil) != wantErr {
					t.Fatalf("step %d: Activate(%s) = %v, reference active=%v", step, srv.Name, err, wantErr)
				}
			case qopDeactivate:
				srv := srvs[arg%4]
				rs := ref[srv]
				wantErr := !rs.active
				if rs.active {
					if rs.busy {
						rs.stopped = true
					} else {
						rs.active = false
					}
				}
				if err := sys.Deactivate(srv.Name); (err != nil) != wantErr {
					t.Fatalf("step %d: Deactivate(%s) = %v, reference active=%v", step, srv.Name, err, !wantErr)
				}
			case qopCrash:
				srv := srvs[arg%4]
				rs := ref[srv]
				crashed := rs.crashed
				if rs.busy {
					crashed = append(crashed, rs.req)
				}
				*rs = refServer{crashed: crashed}
				if err := sys.CrashServer(srv.Name); err != nil {
					t.Fatal(err)
				}
			case qopMove:
				c, g := clis[arg%4], groups[arg/4%3]
				wantErr := !hasQueue(g)
				if old := c.Group; !wantErr && hasQueue(old) && old != g {
					kept := fifo[old][:0:0]
					for _, req := range fifo[old] {
						if req.cli == c {
							refDropped = append(refDropped, dropRec{id(req), true})
							continue
						}
						kept = append(kept, req)
					}
					fifo[old] = kept
				}
				if err := sys.MoveClient(c.Name, g); (err != nil) != wantErr {
					t.Fatalf("step %d: MoveClient(%s, %s) = %v, want an error: %v", step, c.Name, g, err, wantErr)
				}
			}

			for _, req := range served {
				if req.srv == nil || ref[req.srv] == nil || ref[req.srv].req != req {
					t.Fatalf("step %d (op %d): request %d served by %v, not the server the reference picked", step, op, id(req), req.srv)
				}
			}
			for _, srv := range srvs {
				if rs := ref[srv]; srv.active != rs.active || srv.busy != rs.busy {
					t.Fatalf("step %d (op %d): %s active=%v busy=%v, reference %v %v", step, op, srv.Name, srv.active, srv.busy, rs.active, rs.busy)
				}
			}
			for _, g := range groups {
				if got, want := sys.QueueLen(g), len(fifo[g]); got != want {
					t.Fatalf("step %d (op %d): QueueLen(%s) = %d, reference %d", step, op, g, got, want)
				}
				q := sys.queueOf(g)
				if q == nil {
					continue
				}
				if size := len(q.ring); size&(size-1) != 0 || q.waiting() > size {
					t.Fatalf("step %d: %s ring of %d holds %d", step, g, size, q.n)
				}
				for i, req := range fifo[g] {
					if q.at(i) != req || req.srv != nil {
						t.Fatalf("step %d (op %d): %s position %d holds request %v, reference %d (served by %v)", step, op, g, i, q.at(i), id(req), req.srv)
					}
				}
				for i := q.waiting(); i < len(q.ring); i++ {
					if slot := (int(q.head) + i) & (len(q.ring) - 1); q.ring[slot] != nil {
						t.Fatalf("step %d (op %d): %s slot %d outside the %d waiting is not nil", step, op, g, slot, q.n)
					}
				}
			}
			if got := sys.DroppedRequests(); got != uint64(len(refDropped)) || len(dropped) != len(refDropped) {
				t.Fatalf("step %d (op %d): DroppedRequests = %d (%d seen), reference %d", step, op, got, len(dropped), len(refDropped))
			}
			for i, want := range refDropped {
				if dropped[i] != want {
					t.Fatalf("step %d (op %d): drop %d is %+v, reference %+v", step, op, i, dropped[i], want)
				}
			}
		}
	})
}
