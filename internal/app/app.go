// Package app implements the managed application of the paper's experiment:
// a replicated client/server storage system. Clients send small requests to
// a request-queue machine that keeps one FIFO queue per server group;
// servers pull requests from their group's queue, process them, and stream
// the (much larger) reply directly back to the client (§5: requests average
// 0.5 KB, replies 20 KB).
//
// The application runs on the netsim network under the sim kernel and has no
// built-in adaptation: every adaptive behaviour comes from the framework
// through the environment-manager operators (Table 1), exactly as in the
// paper's evaluation.
package app

import (
	"fmt"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// Request is one client request traveling through the system. The system owns
// the record and reuses it once the request is answered or dropped: listeners
// (OnSend, OnResponse, OnDrop) may read it during their callback but must not
// keep the pointer, because the record then carries a later request. The one
// exception is the client's LatencyObserver, which links the record into its
// outstanding list at the send and unlinks it at the response or drop —
// before the record can be reused.
//
// The record is 64 bytes, one cache line, and holds what the pipeline reads:
// the client, its group and the server are reached through handles rather
// than named.
type Request struct {
	RespBits float64 // reply size requested
	SentAt   sim.Time

	// cli, q and srv thread the request through its static pipeline
	// callbacks (send → enqueue → serve → reply) without per-step closures
	// or name lookups. q is the record of the group the client was routed to
	// at the send, whether or not CreateQueue has provisioned its queue yet:
	// a queue created while the request travels is the one it joins.
	cli *Client
	q   *queue
	srv *Server

	// older and newer are the record's neighbours in its client's list of
	// outstanding requests while watched is set (latency.go). crash is srv's
	// crash count when srv took the request: a later crash drops it.
	older, newer *Request
	watched      bool
	crash        uint32
}

// Group returns the name of the group the request was routed to.
func (r *Request) Group() string { return r.q.group }

// Response records a completed request at the client. Req is valid only
// during the OnResponse callback.
type Response struct {
	Req     *Request
	DoneAt  sim.Time
	Latency float64
}

// Server is one (possibly spare) server process pinned to a host.
type Server struct {
	Name  string
	Host  netsim.NodeID
	Group string // group whose queue it pulls from ("" when unattached)

	// ServiceBase and ServicePerBit model request processing time
	// (CPU + disk): base + bits*perBit seconds.
	ServiceBase   float64
	ServicePerBit float64

	active  bool
	busy    bool
	stopped bool   // deactivation requested while busy
	crashes uint32 // CrashServer calls; see Request.crash
	served  uint64
	q       *queue // Group's queue, nil while it has none
}

// Active reports whether the server is pulling requests.
func (s *Server) Active() bool { return s.active }

// Busy reports whether the server is mid-request.
func (s *Server) Busy() bool { return s.busy }

// Served returns the number of completed requests.
func (s *Server) Served() uint64 { return s.served }

// Client is a request generator pinned to a host.
type Client struct {
	Name  string
	Host  netsim.NodeID
	Group string // group its new requests are routed to

	// Rate is the mean request rate (Poisson arrivals). ReqBits/RespBits
	// sample the request/reply sizes; the workload layer re-points these at
	// phase boundaries (Figure 7).
	Rate     float64
	ReqBits  func() float64
	RespBits func() float64

	rng     *sim.Rand
	stopped bool
	paused  bool
	pending bool // an arrival event is scheduled
	respTag string

	// Listeners receive completed responses (probes attach here; this is
	// the AIDE-style instrumentation point: "probes report when particular
	// methods have been called").
	OnResponse []func(Response)
	// OnSend listeners observe request emission (for outstanding-request
	// tracking in the harness).
	OnSend []func(*Request)
	// watch is the client's latency observer state, nil while unobserved.
	watch *ClientLatency

	responses uint64
	// synth is the cached synthetic request handle behind DeliverSynthetic
	// (openloop.go); nil until the open-loop engine first delivers.
	synth *Request
	q     *queue // Group's record, provisioned or not
	sys   *System
}

// Responses returns the number of replies received.
func (c *Client) Responses() uint64 { return c.responses }

// queue is one group's record on the queue machine, made when a client or
// CreateQueue first names the group and kept for the life of the system. Once
// provisioned it is the group's FIFO request queue: a ring whose size is a
// power of two. The n waiting requests sit at ring[(head+i)&(len-1)], oldest
// first; every other slot is nil. The ring doubles only when it is full, so
// its size follows the deepest backlog, not the number of requests that have
// passed through. An unprovisioned record has a nil ring and holds no
// requests; CreateQueue gives it an empty one. head and n are int32 so that
// the record, its group's name included, stays in the 48-byte size class.
type queue struct {
	ring    []*Request
	head, n int32
	group   string
}

// provisioned reports whether CreateQueue has run for the group.
func (q *queue) provisioned() bool { return q.ring != nil }

// waiting returns the number of queued requests.
func (q *queue) waiting() int { return int(q.n) }

// at returns the i-th waiting request, 0 the oldest.
func (q *queue) at(i int) *Request { return q.ring[(int(q.head)+i)&(len(q.ring)-1)] }

// push appends a request at the tail.
func (q *queue) push(req *Request) {
	if int(q.n) == len(q.ring) {
		grown := make([]*Request, max(1, 2*len(q.ring)))
		for i := 0; i < int(q.n); i++ {
			grown[i] = q.at(i)
		}
		q.ring, q.head = grown, 0
	}
	q.ring[int(q.head+q.n)&(len(q.ring)-1)] = req
	q.n++
}

// pop removes and returns the oldest request; the queue must not be empty.
func (q *queue) pop() *Request {
	req := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & int32(len(q.ring)-1)
	q.n--
	return req
}

// System is the running application.
type System struct {
	K   *sim.Kernel
	Net *netsim.Network
	// QueueHost is the machine holding the request queues (shared with
	// Server 5 in the paper's testbed).
	QueueHost netsim.NodeID

	clients map[string]*Client
	servers map[string]*Server
	queues  map[string]*queue // every named group's record, provisioned or not
	// Registration order, by name (what the accessors return) and by handle
	// (what the request pipeline and the per-tick scans walk).
	order struct {
		clients []string
		servers []string
		groups  []string
	}
	clientList []*Client
	serverList []*Server

	droppedReqs uint64
	// freeReqs holds answered and dropped requests' records for sendRequest
	// to reuse. StopClients releases it and ends recycling (stopped), so a
	// retired system retains no records for requests it will never send.
	freeReqs sim.Pool[Request]
	stopped  bool
	// memberRev advances whenever a flow class's key, members or anchor can
	// have changed: a process registered, re-pointed, re-hosted, activated
	// or deactivated (MemberRev).
	memberRev uint64

	// OnDrop listeners observe requests discarded by moves, missing queues
	// and server crashes (harness instrumentation; the paper's clients simply
	// never hear back). As with OnResponse, the request is valid only during
	// the callback: its record is reused after it.
	OnDrop []func(*Request)
}

// New creates an empty application bound to the kernel and network.
func New(k *sim.Kernel, net *netsim.Network, queueHost netsim.NodeID) *System {
	return &System{
		K:         k,
		Net:       net,
		QueueHost: queueHost,
		clients:   map[string]*Client{},
		servers:   map[string]*Server{},
		queues:    map[string]*queue{},
	}
}

// AddClient registers a client on a host, initially routed to group.
func (s *System) AddClient(name string, host netsim.NodeID, group string, rate float64, rng *sim.Rand) *Client {
	if _, dup := s.clients[name]; dup {
		// Invariant: every caller's names are unique before they get here:
		// outside this package the only caller is operators.Deploy, which
		// builds the spec's model first, and Build rejects a repeated name.
		panic("app: duplicate client " + name)
	}
	c := &Client{
		Name: name, Host: host, Group: group, Rate: rate,
		ReqBits:  func() float64 { return 0.5 * 8192 }, // 0.5 KB
		RespBits: func() float64 { return 20 * 8192 },  // 20 KB
		rng:      rng, sys: s, respTag: "resp:" + name, q: s.groupRecord(group),
	}
	s.clients[name] = c
	s.order.clients = append(s.order.clients, name)
	s.clientList = append(s.clientList, c)
	s.memberRev++
	return c
}

// AddServer registers a server process on a host. It starts inactive;
// activation goes through the environment manager, as in the testbed where
// S4 and S7 sat idle until repairs recruited them.
func (s *System) AddServer(name string, host netsim.NodeID, group string, serviceBase, servicePerBit float64) *Server {
	if _, dup := s.servers[name]; dup {
		// Invariant: as for AddClient; the autoscaler's replicas are named
		// GROUP_autoN from a per-application counter, which no
		// fleet.AppSpec.Spec server name (S<g>_<j>) matches.
		panic("app: duplicate server " + name)
	}
	srv := &Server{
		Name: name, Host: host, Group: group,
		ServiceBase: serviceBase, ServicePerBit: servicePerBit,
		q: s.queueOf(group),
	}
	s.servers[name] = srv
	s.order.servers = append(s.order.servers, name)
	s.serverList = append(s.serverList, srv)
	s.memberRev++
	return srv
}

// groupRecord returns group's record, making an unprovisioned one the first
// time the group is named.
func (s *System) groupRecord(group string) *queue {
	q := s.queues[group]
	if q == nil {
		q = &queue{group: group}
		s.queues[group] = q
	}
	return q
}

// queueOf returns group's queue, nil while CreateQueue has not provisioned
// it.
func (s *System) queueOf(group string) *queue {
	if q := s.queues[group]; q != nil && q.provisioned() {
		return q
	}
	return nil
}

// CreateQueue provisions a FIFO queue for a group (Table 1 createReqQueue).
func (s *System) CreateQueue(group string) error {
	q := s.groupRecord(group)
	if q.provisioned() {
		return fmt.Errorf("app: queue for %s already exists", group)
	}
	q.ring = []*Request{}
	s.order.groups = append(s.order.groups, group)
	s.memberRev++
	// Servers registered against the group before its queue existed; its
	// clients hold the record already.
	for _, srv := range s.serverList {
		if srv.Group == group {
			srv.q = q
		}
	}
	return nil
}

// Client returns a client by name.
func (s *System) Client(name string) *Client { return s.clients[name] }

// Server returns a server by name.
func (s *System) Server(name string) *Server { return s.servers[name] }

// Clients returns all client names in registration order.
func (s *System) Clients() []string { return s.order.clients }

// Servers returns all server names in registration order.
func (s *System) Servers() []string { return s.order.servers }

// Groups returns all group names in queue-creation order. Groups are never
// removed, so a group's position in the list is stable.
func (s *System) Groups() []string { return s.order.groups }

// MemberRev returns the membership revision: it advances on every change
// that can move a client's (region, group) key, a class's members or a
// group's anchor host, so a caller holding flow classes built at one
// revision may keep them for as long as it reads the same value.
func (s *System) MemberRev() uint64 { return s.memberRev }

// QueueLen returns the number of waiting requests in a group's queue.
func (s *System) QueueLen(group string) int {
	q := s.queues[group]
	if q == nil {
		return 0
	}
	return q.waiting()
}

// ActiveServersOf returns the names of active servers pulling from a group.
func (s *System) ActiveServersOf(group string) []string {
	var out []string
	for _, srv := range s.serverList {
		if srv.active && srv.Group == group {
			out = append(out, srv.Name)
		}
	}
	return out
}

// ActiveServers returns the first active server pulling from a group, in
// registration order, and how many there are: ActiveServersOf for callers
// on a timer, which need no list.
func (s *System) ActiveServers(group string) (first *Server, n int) {
	for _, srv := range s.serverList {
		if srv.active && srv.Group == group {
			if n == 0 {
				first = srv
			}
			n++
		}
	}
	return first, n
}

// Start begins request generation for every client.
func (s *System) Start() {
	for _, c := range s.clientList {
		s.scheduleNext(c)
	}
}

// StopClients halts request generation (end of experiment).
func (s *System) StopClients() {
	for _, c := range s.clientList {
		c.stopped = true
	}
	s.stopped = true
	s.freeReqs = nil
}

// PauseClients suspends request generation on every client without
// discarding it — the drain step of a fleet migration. Paused clients keep
// their RNG streams and outstanding requests; ResumeClients restarts
// generation where it left off.
func (s *System) PauseClients() {
	for _, c := range s.clientList {
		c.paused = true
	}
}

// ResumeClients restarts request generation for paused clients. A client
// whose pre-pause arrival event is still pending is left to that event, so
// a pause/resume cycle never forks a second generator chain.
func (s *System) ResumeClients() {
	for _, c := range s.clientList {
		if !c.paused {
			continue
		}
		c.paused = false
		if !c.pending {
			s.scheduleNext(c)
		}
	}
}

func (s *System) scheduleNext(c *Client) {
	if c.stopped || c.paused || c.Rate <= 0 {
		return
	}
	gap := c.rng.Exp(1 / c.Rate)
	c.pending = true
	s.K.AtAnonArg(s.K.Now()+gap, clientTickFn, c)
}

// clientTickFn fires one client arrival and schedules the next.
func clientTickFn(arg any) {
	c := arg.(*Client)
	c.pending = false
	if c.stopped || c.paused {
		return
	}
	c.sys.sendRequest(c)
	c.sys.scheduleNext(c)
}

// sendRequest emits one request: a small message to the queue machine that
// is enqueued on arrival.
func (s *System) sendRequest(c *Client) {
	req := s.freeReqs.Get()
	*req = Request{RespBits: c.RespBits(), SentAt: s.K.Now(), cli: c, q: c.q}
	for _, fn := range c.OnSend {
		fn(req)
	}
	bits := c.ReqBits()
	s.Net.SendMessageTo(c.Host, s.QueueHost, bits, netsim.BestEffort, enqueueFn, req)
}

// enqueueFn fires when a request message reaches the queue machine.
func enqueueFn(arg any) {
	req := arg.(*Request)
	req.cli.sys.enqueue(req)
}

func (s *System) enqueue(req *Request) {
	q := req.q
	if !q.provisioned() {
		// No such queue (misrouted request): drop. The client will see it
		// as a lost request.
		s.drop(req)
		return
	}
	q.push(req)
	s.dispatch(q)
}

// dispatch hands queued requests to idle active servers of the group.
func (s *System) dispatch(q *queue) {
	for q.n > 0 {
		srv := s.idleServer(q)
		if srv == nil {
			return
		}
		s.serve(srv, q.pop())
	}
}

func (s *System) idleServer(q *queue) *Server {
	for _, srv := range s.serverList {
		if srv.q == q && srv.active && !srv.busy {
			return srv
		}
	}
	return nil
}

// serve models the server pulling the request (small message queue→server),
// processing it, and streaming the reply to the client as an elastic
// transfer. The server stays busy until the reply transfer completes —
// matching the paper's Java servers, whose synchronous reply writes are
// exactly why slow clients starve a server group in the control run (and why
// the control "never recovers" until the competing traffic relents).
//
// Service starts when the pull lands, so one event at the end of service
// covers both: at the pull's arrival time plus the service time, summed in
// that order. A pull lost to message drops schedules nothing; the request and
// its server wait for it forever.
func (s *System) serve(srv *Server, req *Request) {
	srv.busy = true
	req.srv, req.crash = srv, srv.crashes
	delay, delivered := s.Net.Transmit(s.QueueHost, srv.Host, pullBits, netsim.BestEffort)
	if !delivered {
		return
	}
	service := srv.ServiceBase + float64(srv.ServicePerBit*req.RespBits)
	s.K.AtAnonArg((s.K.Now()+delay)+service, servedFn, req)
}

// pullBits is the request payload the queue machine forwards to a server.
const pullBits = 0.5 * 8192

// lost reports whether req's server crashed after taking it, and drops it if
// so: the pipeline step that finds it lost goes no further.
func (req *Request) lost() bool {
	if req.crash == req.srv.crashes {
		return false
	}
	req.cli.sys.drop(req)
	return true
}

// drop discards a request: it counts in DroppedRequests, the OnDrop listeners
// see it, and its record is reused. Every caller holds the request's last
// reference: no queue holds it and no pending event carries it.
func (s *System) drop(req *Request) {
	s.droppedReqs++
	for _, fn := range s.OnDrop {
		fn(req)
	}
	s.recycle(req)
}

// recycle keeps an answered or dropped request's record for a later send,
// until StopClients ends sending.
func (s *System) recycle(req *Request) {
	if !s.stopped {
		s.freeReqs.Put(req)
	}
}

// servedFn fires when processing completes and streams the reply to the
// client as an elastic transfer.
func servedFn(arg any) {
	req := arg.(*Request)
	if req.lost() {
		return
	}
	srv, cli := req.srv, req.cli
	cli.sys.Net.StartTransferArg(srv.Host, cli.Host, req.RespBits, cli.respTag, replyDoneFn, req)
}

// replyDoneFn fires when the last reply bit lands at the client.
func replyDoneFn(arg any) {
	req := arg.(*Request)
	if req.lost() {
		return
	}
	srv, cli := req.srv, req.cli
	s := cli.sys
	done := Response{Req: req, DoneAt: s.K.Now(), Latency: s.K.Now() - req.SentAt}
	cli.responses++
	for _, fn := range cli.OnResponse {
		fn(done)
	}
	s.recycle(req)
	s.finishServing(srv)
}

func (s *System) finishServing(srv *Server) {
	srv.busy = false
	srv.served++
	if srv.stopped {
		srv.active = false
		srv.stopped = false
		s.memberRev++ // a deferred Deactivate takes effect
	}
	if srv.active && srv.q != nil {
		s.dispatch(srv.q)
	}
}

// --- operations invoked by the environment manager (Table 1) ---

// Activate marks a server active and starts it pulling from its group.
func (s *System) Activate(server string) error {
	srv := s.servers[server]
	if srv == nil {
		return fmt.Errorf("app: no server %q", server)
	}
	if srv.Group == "" {
		return fmt.Errorf("app: server %q not connected to a queue", server)
	}
	if srv.active {
		return fmt.Errorf("app: server %q already active", server)
	}
	srv.active = true
	srv.stopped = false
	s.memberRev++
	if srv.q != nil {
		s.dispatch(srv.q)
	}
	return nil
}

// Deactivate stops a server pulling; if it is mid-request it finishes first.
func (s *System) Deactivate(server string) error {
	srv := s.servers[server]
	if srv == nil {
		return fmt.Errorf("app: no server %q", server)
	}
	if !srv.active {
		return fmt.Errorf("app: server %q not active", server)
	}
	if srv.busy {
		srv.stopped = true
	} else {
		srv.active = false
	}
	s.memberRev++
	return nil
}

// ConnectServer points a server at a group's queue (Table 1 connectServer).
// Only inactive servers can be re-pointed.
func (s *System) ConnectServer(server, group string) error {
	srv := s.servers[server]
	if srv == nil {
		return fmt.Errorf("app: no server %q", server)
	}
	if srv.active {
		return fmt.Errorf("app: server %q is active; deactivate first", server)
	}
	q := s.queueOf(group)
	if q == nil {
		return fmt.Errorf("app: no queue for group %q", group)
	}
	srv.Group, srv.q = group, q
	s.memberRev++
	return nil
}

// MoveClient re-routes a client's future requests to another group's queue
// (Table 1 moveClient). The client's queued (not yet pulled) requests on the
// old queue are discarded — the request splitter forgets reassigned clients;
// requests already being served complete against the old group.
func (s *System) MoveClient(client, group string) error {
	c := s.clients[client]
	if c == nil {
		return fmt.Errorf("app: no client %q", client)
	}
	q := s.queueOf(group)
	if q == nil {
		return fmt.Errorf("app: no queue for group %q", group)
	}
	if old := c.q; old != q {
		// Filter the ring in place, keeping the others' order.
		mask, kept := len(old.ring)-1, 0
		for i := 0; i < int(old.n); i++ {
			r := old.at(i)
			if r.cli == c {
				s.drop(r)
				continue
			}
			old.ring[(int(old.head)+kept)&mask] = r
			kept++
		}
		for i := kept; i < int(old.n); i++ {
			old.ring[(int(old.head)+i)&mask] = nil
		}
		old.n = int32(kept)
	}
	c.Group, c.q = group, q
	s.memberRev++
	return nil
}

// PooledRequests returns the number of free request records the system is
// holding for reuse: zero after StopClients (leak checks).
func (s *System) PooledRequests() int { return len(s.freeReqs) }

// DroppedRequests counts requests discarded for want of a queue, by client
// moves and by server crashes.
func (s *System) DroppedRequests() uint64 { return s.droppedReqs }

// Rehost moves every process of the system onto a new host set: the request
// queue machine, each server and each client (the fleet migration cutover).
// The caller is responsible for quiescing traffic first — pause the clients
// and drain in-flight requests; anything still in flight completes against
// the hosts it was issued from. All three maps must cover every registered
// process; on any gap nothing is changed.
func (s *System) Rehost(queueHost netsim.NodeID, serverHosts, clientHosts map[string]netsim.NodeID) error {
	for _, name := range s.order.servers {
		if _, ok := serverHosts[name]; !ok {
			return fmt.Errorf("app: rehost missing host for server %q", name)
		}
	}
	for _, name := range s.order.clients {
		if _, ok := clientHosts[name]; !ok {
			return fmt.Errorf("app: rehost missing host for client %q", name)
		}
	}
	s.QueueHost = queueHost
	for _, srv := range s.serverList {
		srv.Host = serverHosts[srv.Name]
	}
	for _, c := range s.clientList {
		c.Host = clientHosts[c.Name]
	}
	s.memberRev++
	return nil
}

// CrashServer abruptly deactivates a server, dropping its current request
// (failure injection for the self-healing example and tests): the request's
// next pipeline step (service end or reply) drops it instead.
func (s *System) CrashServer(server string) error {
	srv := s.servers[server]
	if srv == nil {
		return fmt.Errorf("app: no server %q", server)
	}
	srv.active = false
	srv.busy = false
	srv.stopped = false
	srv.crashes++
	s.memberRev++
	return nil
}
