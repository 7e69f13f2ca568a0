package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// def names one metric. The same tables are written out in BENCHMARK.json
// (with the end-to-end bounds) and README.md; a test keeps them in step.
type def struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees, on every workload. Host
// times are calibrated seconds; sim_* are simulated and exact under a seed.
var endToEnd = []def{
	{"setup_s", "s", lower},
	{"run_s", "s", lower},
	{"wall_ms_per_app", "ms", lower},
	{"alloc_mb_per_app", "MB", lower},
	{"mallocs_per_app", "count", lower},
	{"live_mb_per_app", "MB", lower},
	{"sim_frac_above_bound", "fraction", lower},
	{"sim_responses_per_app", "count", higher},
}

// simRepairS is end-to-end by nature (the paper's "averages 30 seconds") but
// has no value on a workload without repairs, and BENCHMARK.json requires an
// end-to-end metric on every workload. It heads the per-layer list instead.
var simRepairS = def{"sim_repair_s", "sim-s", lower}

// perLayer lists every layer metric by module. Counters come from the traced
// repetition and are exact under a seed; *_ns, *_us and *_ms (other than the
// kernel windows) come from the layer probes and are calibrated host time.
var perLayer = []def{
	simRepairS,

	{"sim.kernel.events_per_app", "count", lower},
	{"sim.kernel.events_per_s", "1/s", higher},
	{"sim.kernel.window_ms_p50", "ms", lower},
	{"sim.kernel.window_ms_max", "ms", lower},
	{"sim.kernel.ns_per_event", "ns", lower},
	{"sim.kernel.reschedule_ns", "ns", lower},
	{"sim.kernel.ticker_ns", "ns", lower},

	{"netsim.grid.generate_ms", "ms", lower},
	{"netsim.route.cold_us", "us", lower},
	{"netsim.route.warm_ns", "ns", lower},
	{"netsim.route.live_bytes_per_pair", "B", lower},
	{"netsim.availbw.warm_ns", "ns", lower},

	{"netsim.solver.solves_per_event", "ratio", lower},
	{"netsim.solver.components_per_solve", "ratio", lower},
	{"netsim.flows.completed_per_app", "count", higher},
	{"netsim.msgs.sent_per_app", "count", lower},
	{"netsim.msgs.mean_lag_sim_ms", "sim-ms", lower},
	{"netsim.reflow.ns_per_op", "ns", lower},
	{"netsim.transfer.ns_per_flow", "ns", lower},
	{"netsim.message.ns_per_send", "ns", lower},
	{"netsim.classflow.ns_per_update", "ns", lower},

	{"bus.shards_acquired", "count", lower},
	{"bus.publish.ns_per_delivery", "ns", lower},
	{"bus.publish_batch.ns_per_msg", "ns", lower},

	{"probes.samples_per_app", "count", lower},
	{"gauges.updates_per_app", "count", lower},
	{"gauges.reports_per_app", "count", lower},
	{"gauges.lifecycle_ops_per_app", "count", lower},
	{"gauges.protocol_sim_s", "sim-s", lower},
	{"gauges.lease.create_delete_us", "us", lower},

	{"core.reports_per_app", "count", lower},
	{"core.checks_per_app", "count", lower},
	{"core.model_updates_per_app", "count", lower},
	{"constraint.violations_per_app", "count", lower},
	{"constraint.parse_us", "us", lower},
	{"constraint.check.ns_per_component", "ns", lower},
	{"model.clone_us", "us", lower},
	{"model.equal_us", "us", lower},

	{"repair.decides_per_app", "count", lower},
	{"repair.commit_ratio", "ratio", higher},
	{"repair.ops_per_repair", "ratio", lower},
	{"repair.alerts_per_app", "count", lower},
	{"repair.handle_violation_us", "us", lower},
	{"script.compile_us", "us", lower},
	{"script.handle_violation_us", "us", lower},

	{"acme.parse_us", "us", lower},
	{"acme.print_us", "us", lower},

	{"remos.queries_per_app", "count", lower},
	{"remos.cold_ratio", "ratio", lower},
	{"remos.getflow.warm_ns", "ns", lower},
	{"remos.batch.ns_per_pair", "ns", lower},

	{"app.responses_per_event", "ratio", higher},
	{"app.dropped_ratio", "ratio", lower},

	{"fleet.admit.ms_p50", "ms", lower},
	{"fleet.admit.ms_p90", "ms", lower},
	{"fleet.admit.growth", "ratio", lower},
	{"fleet.place.us", "us", lower},
	{"fleet.retire.us", "us", lower},
	{"fleet.placement.rejections", "count", lower},
	{"fleet.placement.free_slots_end", "count", higher},

	{"fleet.migration.verdicts", "count", lower},
	{"fleet.migration.decides", "count", lower},
	{"fleet.migration.completed", "count", higher},
	{"fleet.migration.aborted", "count", lower},
	{"fleet.migration.commit_ratio", "ratio", higher},
	{"fleet.migration.detect_sim_s_p50", "sim-s", lower},
	{"fleet.migration.drain_sim_s_p50", "sim-s", lower},
	{"fleet.migration.recover_sim_s_p50", "sim-s", lower},
	{"fleet.regionhealth.refreshes", "count", lower},

	{"fleet.openloop.scale_ups", "count", lower},
	{"fleet.openloop.scale_downs", "count", lower},
	{"fleet.openloop.offered", "count", higher},
	{"fleet.openloop.admitted", "count", higher},
	{"fleet.openloop.shed", "count", lower},
	{"arrivals.sample.ns_per_arrival", "ns", lower},
	{"queueing.mmm.ns", "ns", lower},

	{"obs.spans_per_app", "count", lower},
	{"obs.trace.overhead_ratio", "ratio", lower},

	{"experiment.control_frac_above", "fraction", higher},
	{"experiment.control_final_frac_above", "fraction", higher},
	{"experiment.first_violation_sim_s", "sim-s", lower},
	{"experiment.adaptive_final_frac_above", "fraction", lower},
	{"experiment.moves", "count", lower},
	{"experiment.paper_error.repair_s", "sim-s", lower},
	{"experiment.paper_error.first_violation_s", "sim-s", lower},

	{"host.calib_ms", "ms", lower},
	{"host.raw_setup_s", "s", lower},
	{"host.raw_run_s", "s", lower},
	{"host.gc_cycles", "count", lower},
	{"host.gc_pause_ms", "ms", lower},
	{"host.peak_rss_mb", "MB", lower},
	{"host.gomaxprocs", "count", higher},
	{"host.nproc", "count", higher},
}

// The paper's own figures, for the accuracy statement on paper-testbed.
const (
	paperRepairSeconds         = 30.0  // "averages 30 seconds"
	paperFirstViolationSeconds = 140.0 // the control run first exceeds 2 s at about 140 s
)

// value is one measured metric: the number and how many samples it rests on.
type value struct {
	v float64
	n int
	// tailP/tailV give the highest percentile with at least ten samples
	// beyond it, on host-time metrics with enough repetitions.
	tailP, tailV float64
}

// values collects measured metrics by name.
type values map[string]value

func (vs values) set(name string, v float64, n int) { vs[name] = value{v: v, n: n} }

// metric is one row of the printed report.
type metric struct {
	Name   string     `json:"name"`
	Unit   string     `json:"unit"`
	Better string     `json:"better"`
	Value  float64    `json:"value"`
	N      int        `json:"n"`
	Tail   *tailValue `json:"tail,omitempty"`
}

type tailValue struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// report is the full result of one run, printed before the contract line.
type report struct {
	Workload       string   `json:"workload"`
	Why            string   `json:"why"`
	Seed           uint64   `json:"seed"`
	Repetitions    int      `json:"repetitions"`
	SimRepetitions int      `json:"sim_repetitions"`
	OpsTotal       int      `json:"ops_total"`
	OpsFailed      int      `json:"ops_failed"`
	Failures       []string `json:"failures,omitempty"`
	SimFingerprint string   `json:"sim_fingerprint"`
	Accuracy       string   `json:"accuracy,omitempty"`
	TraceFile      string   `json:"trace_file,omitempty"`
	EndToEnd       []metric `json:"end_to_end,omitempty"`
	PerLayer       []metric `json:"per_layer,omitempty"`
}

// rows renders the measured subset of defs, in table order.
func rows(defs []def, vs values) []metric {
	var out []metric
	for _, d := range defs {
		v, ok := vs[d.name]
		if !ok {
			continue
		}
		m := metric{Name: d.name, Unit: d.unit, Better: d.better, Value: v.v, N: v.n}
		if v.tailP > 0 {
			m.Tail = &tailValue{v.tailP, v.tailV}
		}
		out = append(out, m)
	}
	return out
}

// contractLine is the last line of standard output: the result in the form
// the benchmark driver reads. It carries every metric of defs; one the run
// has no value for (a counter of a layer the workload bypasses) reads 0.
func contractLine(w io.Writer, defs []def, vs values, attempted, failed int) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.name] = mv{vs[d.name].v, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
