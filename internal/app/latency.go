package app

import "archadapt/internal/metrics"

// LatencyObserver measures ground-truth client latency the way the paper's
// harness reads it off the testbed: a sliding-window average of completed
// responses — except that while a client is wedged (no responses at all) the
// window would go silent and hide the outage, so the observer then reports
// the age of the oldest outstanding request, which is what a user would
// actually be experiencing. Shared by the single-application experiment
// harness and the fleet control plane.
//
// Outstanding requests are not copied anywhere: each observed client's are a
// doubly linked list threaded through the Request records themselves, in
// send order. A client's sends carry non-decreasing SentAt, so the head of
// its list is its oldest outstanding request however many are in flight.
type LatencyObserver struct {
	clients     map[string]*ClientLatency
	outstanding int
}

// ClientLatency is one observed client's state: the handle a per-tick sampler
// resolves once (LatencyObserver.Client) instead of naming the client on
// every sample.
type ClientLatency struct {
	o   *LatencyObserver
	win metrics.Window
	// head is the oldest outstanding request, tail the newest; both nil when
	// nothing is outstanding.
	head, tail *Request
}

// ObserveLatency hooks the named clients (and the system's drop hook) and
// returns the observer. windowWidth is the averaging window in seconds. A
// client carries at most one observer, because its requests carry one pair
// of links: observing a client twice panics.
func ObserveLatency(sys *System, clients []string, windowWidth float64) *LatencyObserver {
	o := &LatencyObserver{clients: map[string]*ClientLatency{}}
	for _, name := range clients {
		cli := sys.Client(name)
		if cli.watch != nil {
			// Invariant: every caller observes a freshly built system once:
			// experiment.Run and the benchmark's traced paper run right
			// after building the testbed, Fleet.admit right after building
			// the application, each over its own client names.
			panic("app: latency of client " + name + " is already observed")
		}
		w := &ClientLatency{o: o, win: metrics.Window{Width: windowWidth}}
		o.clients[name], cli.watch = w, w
		cli.OnSend = append(cli.OnSend, w.sent)
		cli.OnResponse = append(cli.OnResponse, w.answered)
	}
	sys.OnDrop = append(sys.OnDrop, unwatchDropped)
	return o
}

// sent links a request at the tail of its client's outstanding list.
func (w *ClientLatency) sent(r *Request) {
	r.watched, r.older, r.newer = true, w.tail, nil
	if w.tail != nil {
		w.tail.newer = r
	} else {
		w.head = r
	}
	w.tail = r
	w.o.outstanding++
}

// unlink takes an answered or dropped request out of the list, from wherever
// in it the request sits: replies overtake each other and MoveClient drops
// from the middle of a queue. A request that was never linked — sent before
// the client was observed, or the open-loop engine's synthetic one — is left
// alone.
func (w *ClientLatency) unlink(r *Request) {
	if !r.watched {
		return
	}
	if r.older != nil {
		r.older.newer = r.newer
	} else {
		w.head = r.newer
	}
	if r.newer != nil {
		r.newer.older = r.older
	} else {
		w.tail = r.older
	}
	r.watched, r.older, r.newer = false, nil, nil
	w.o.outstanding--
}

func (w *ClientLatency) answered(r Response) {
	w.unlink(r.Req)
	w.win.Add(r.DoneAt, r.Latency)
}

// unwatchDropped is the observers' OnDrop hook. A dropped request leaves the
// list at the drop; a lost one — sitting in a queue no server pulls from —
// stays outstanding, and ages, for as long as it is lost.
func unwatchDropped(r *Request) {
	if w := r.cli.watch; w != nil {
		w.unlink(r)
	}
}

// Outstanding returns the number of requests sent but not yet answered (or
// dropped) across every observed client — the fleet migration drain check:
// zero means nothing is in flight anywhere in the pipeline.
func (o *LatencyObserver) Outstanding() int { return o.outstanding }

// Client returns the named client's handle, nil if it is not observed.
func (o *LatencyObserver) Client(name string) *ClientLatency { return o.clients[name] }

// Sample returns the client's current ground-truth latency, or ok=false when
// there is nothing to report (no completed responses in the window and no
// outstanding requests).
func (o *LatencyObserver) Sample(name string, now float64) (float64, bool) {
	w := o.clients[name]
	if w == nil {
		return 0, false // never observed
	}
	return w.Sample(now)
}

// Sample is LatencyObserver.Sample for this client.
func (w *ClientLatency) Sample(now float64) (float64, bool) {
	v, ok := w.win.Avg(now)
	if w.head != nil {
		if oldest := now - w.head.SentAt; oldest >= 0 && oldest > v {
			v, ok = oldest, true
		}
	}
	return v, ok
}
