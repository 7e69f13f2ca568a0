package app

import "archadapt/internal/metrics"

// LatencyObserver measures ground-truth client latency the way the paper's
// harness reads it off the testbed: a sliding-window average of completed
// responses — except that while a client is wedged (no responses at all) the
// window would go silent and hide the outage, so the observer then reports
// the age of the oldest outstanding request, which is what a user would
// actually be experiencing. Shared by the single-application experiment
// harness and the fleet control plane.
type LatencyObserver struct {
	windows     map[string]*metrics.Window
	outstanding map[string]map[uint64]float64
}

// ObserveLatency hooks the named clients (and the system's drop hook) and
// returns the observer. windowWidth is the averaging window in seconds.
func ObserveLatency(sys *System, clients []string, windowWidth float64) *LatencyObserver {
	o := &LatencyObserver{
		windows:     map[string]*metrics.Window{},
		outstanding: map[string]map[uint64]float64{},
	}
	for _, name := range clients {
		// The hooks run once per request: they capture the client's window
		// and outstanding map instead of looking both up by name.
		win, out := metrics.NewWindow(windowWidth), map[uint64]float64{}
		o.windows[name], o.outstanding[name] = win, out
		cli := sys.Client(name)
		cli.OnSend = append(cli.OnSend, func(r *Request) {
			out[r.ID] = r.SentAt
		})
		cli.OnResponse = append(cli.OnResponse, func(r Response) {
			delete(out, r.Req.ID)
			win.Add(r.DoneAt, r.Latency)
		})
	}
	sys.OnDrop = append(sys.OnDrop, func(r *Request) {
		delete(o.outstanding[r.Client], r.ID)
	})
	return o
}

// Outstanding returns the number of requests sent but not yet answered (or
// dropped) across every observed client — the fleet migration drain check:
// zero means nothing is in flight anywhere in the pipeline.
func (o *LatencyObserver) Outstanding() int {
	n := 0
	for _, m := range o.outstanding {
		n += len(m)
	}
	return n
}

// Sample returns the client's current ground-truth latency, or ok=false when
// there is nothing to report (no completed responses in the window and no
// outstanding requests).
func (o *LatencyObserver) Sample(name string, now float64) (float64, bool) {
	win := o.windows[name]
	if win == nil {
		return 0, false // never observed
	}
	v, ok := win.Avg(now)
	oldest := -1.0
	for _, sentAt := range o.outstanding[name] {
		if age := now - sentAt; age > oldest {
			oldest = age
		}
	}
	if oldest >= 0 && oldest > v {
		v, ok = oldest, true
	}
	return v, ok
}
