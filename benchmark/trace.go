package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// recorder holds the traced repetition's spans and counter snapshots in
// memory; writeChrome turns them into a Chrome trace at exit. The spans are
// the benchmark's own, recorded around its calls into the simulator; the
// simulator's tracer contributes counters only.
type recorder struct {
	rep   uint64 // the repetition's seed: the id every span of it shares
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes; the top is the next span's parent
	snaps []snapshot
	// phases is the simulator's detect/decide/drain/recover median latency
	// per phase name, simulated seconds, where the workload has any.
	phases map[string]float64
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
}

// snapshot is every counter at one window boundary.
type snapshot struct {
	host     time.Duration
	simT     float64
	counters map[string]float64
}

func newRecorder(rep uint64) *recorder { return &recorder{rep: rep, t0: time.Now()} }

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0), end: -1})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].end = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) snapshot(simT float64, counters map[string]float64) {
	r.snaps = append(r.snaps, snapshot{host: time.Since(r.t0), simT: simT, counters: counters})
}

// final returns the last snapshot's counters.
func (r *recorder) final() map[string]float64 {
	if len(r.snaps) == 0 {
		return map[string]float64{}
	}
	return r.snaps[len(r.snaps)-1].counters
}

// leafSeconds sums the spans that have no child and satisfy match: the host
// time inside the simulator, with the counter snapshots between spans left
// out.
func (r *recorder) leafSeconds(match func(name string) bool) float64 {
	parent := make([]bool, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			parent[s.parent] = true
		}
	}
	var d time.Duration
	for i, s := range r.spans {
		if !parent[i] && match(s.name) {
			d += s.end - s.start
		}
	}
	return d.Seconds()
}

// windowMillis lists the host time of every kernel.run window, milliseconds.
func (r *recorder) windowMillis() []float64 {
	var ms []float64
	for _, s := range r.spans {
		if isWindow(s.name) {
			ms = append(ms, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return ms
}

func isWindow(name string) bool {
	const prefix = "kernel.run.w"
	return len(name) > len(prefix) && name[:len(prefix)] == prefix
}

// chromeEvent is one record of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of host time
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events and every counter as
// a counter ("C") track, loadable in chrome://tracing or Perfetto.
func (r *recorder) writeChrome(w io.Writer, workload string) error {
	usec := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": fmt.Sprintf("benchmark %s rep %d", workload, r.rep)},
	}}
	for id, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: usec(s.start), Dur: usec(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"span": id, "parent": s.parent, "rep": r.rep},
		})
	}
	for _, sn := range r.snaps {
		names := make([]string, 0, len(sn.counters))
		for name := range sn.counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			events = append(events, chromeEvent{
				Name: name, Ph: "C", Ts: usec(sn.host), Pid: 1,
				Args: map[string]any{"value": sn.counters[name], "sim_s": sn.simT},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
