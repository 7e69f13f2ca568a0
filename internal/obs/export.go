// Trace export: JSONL for programmatic consumers, Chrome trace_event JSON
// for timeline viewers (chrome://tracing, Perfetto). Export runs after the
// simulation, so it may allocate freely; only recording is hot-path code.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonlSpan is the JSONL wire form of one span.
type jsonlSpan struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	App    string  `json:"app,omitempty"`
	Name   string  `json:"name,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	V1     float64 `json:"v1,omitempty"`
	V2     float64 `json:"v2,omitempty"`
}

// WriteJSONL writes one JSON object per span, in emission order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := range t.spans {
		sp := &t.spans[i]
		end := sp.End
		if end < sp.Start {
			end = sp.Start // still open at export: clamp
		}
		if err := enc.Encode(jsonlSpan{
			ID: uint64(sp.ID), Parent: uint64(sp.Parent), Kind: sp.Kind.String(),
			App: sp.App, Name: sp.Name, Start: sp.Start, End: end,
			V1: sp.V1, V2: sp.V2,
		}); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one trace_event record. Virtual seconds map to trace
// microseconds, so a 900 s scenario renders as a 900 ms timeline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track (tid) layout within each application's process row.
const (
	tidMonitoring = 1 // probe samples, gauge updates, reports, model updates
	tidRepair     = 2 // violations, repair decisions/tactics/ops, alerts
	tidMigration  = 3 // verdicts, migration decide/reserve/drain/cutover/recover
)

func tidFor(k Kind) int {
	switch k {
	case KindProbeSample, KindGaugeUpdate, KindGaugeReport, KindModelUpdate, KindMessage:
		return tidMonitoring
	case KindViolation, KindRepairDecide, KindTactic, KindOp, KindRepair, KindAlert:
		return tidRepair
	default:
		return tidMigration
	}
}

func usec(t float64) int64 { return int64(float64(t*1e6) + 0.5) }

// WriteChromeTrace writes the span tree in Chrome trace_event JSON. Each
// application becomes a process row with monitoring/repair/migration thread
// tracks; duration spans are complete ("X") events, instants are thread
// instants ("i"), parent links become flow arrows ("s"/"f"), and region
// health plus kernel event rate become counter ("C") tracks on the fleet
// process.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}

	// Process rows: pid 1 is the fleet scope, applications follow in
	// first-span order.
	const fleetPid = 1
	pidOf := map[string]int{"": fleetPid}
	var events []chromeEvent
	meta := func(pid int, name string) {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		for tid, tname := range [...]string{
			tidMonitoring: "monitoring", tidRepair: "repair", tidMigration: "migration",
		} {
			if tname == "" {
				continue
			}
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": tname},
			})
		}
	}
	meta(fleetPid, "fleet")

	for i := range t.spans {
		sp := &t.spans[i]
		pid, ok := pidOf[sp.App]
		if !ok {
			pid = fleetPid + len(pidOf)
			pidOf[sp.App] = pid
			meta(pid, sp.App)
		}
		if sp.Kind == KindRegionHealth {
			events = append(events, chromeEvent{
				Name: sp.Name, Cat: sp.Kind.String(), Ph: "C",
				Ts: usec(sp.Start), Pid: fleetPid,
				Args: map[string]any{"score": sp.V1, "bw": sp.V2},
			})
			continue
		}
		tid := tidFor(sp.Kind)
		args := map[string]any{
			"span": uint64(sp.ID), "parent": uint64(sp.Parent),
			"v1": sp.V1, "v2": sp.V2,
		}
		end := sp.End
		if end < sp.Start {
			end = sp.Start
		}
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Kind.String(),
			Ts: usec(sp.Start), Pid: pid, Tid: tid, Args: args,
		}
		if end > sp.Start {
			ev.Ph = "X"
			ev.Dur = usec(end) - usec(sp.Start)
			if ev.Dur < 1 {
				ev.Dur = 1
			}
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		events = append(events, ev)

		// Parent link as a flow arrow, drawn from the parent's location to
		// this span's start.
		if sp.Parent != 0 {
			if par, ok := t.Get(sp.Parent); ok {
				ppid := pidOf[par.App]
				if ppid == 0 {
					ppid = fleetPid
				}
				ptid := tidFor(par.Kind)
				if par.Kind == KindRegionHealth {
					ppid, ptid = fleetPid, tidMigration
				}
				events = append(events,
					chromeEvent{Name: "cause", Cat: "flow", Ph: "s",
						Ts: usec(par.Start), Pid: ppid, Tid: ptid, ID: uint64(sp.ID)},
					chromeEvent{Name: "cause", Cat: "flow", Ph: "f", BP: "e",
						Ts: usec(sp.Start), Pid: pid, Tid: tid, ID: uint64(sp.ID)},
				)
			}
		}
	}

	// Kernel event rate as a fleet-scope counter track.
	for i, n := range t.kernelBuckets {
		if n == 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: "kernel.events", Cat: "kernel", Ph: "C",
			Ts:  usec(float64(i) * KernelBucketWidth),
			Pid: fleetPid, Args: map[string]any{"fired": n},
		})
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: chrome trace export: %w", err)
	}
	return nil
}
