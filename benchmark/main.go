// Command benchmark is the repository's benchmark: five named workloads
// measured end to end and layer by layer from outside the simulator. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload fleet-steady -seed 1
//	go run ./benchmark -workload fleet-churn -seed 1 -traced -layers
//	go run ./benchmark -selfcheck -seed 1
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	seed    uint64
	seconds float64
	// traced adds the traced repetition, layers the layer probes. The
	// driver's "-trace 1" sets both and cuts the timed loop to the one
	// repetition the traced one is compared with.
	traced, layers bool
	oneRep         bool
	traceOut       string
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Uint64("seed", 1, "repetition r runs with seed+r")
		seconds   = flag.Float64("seconds", 20, "host seconds the timed repetitions may take (each workload runs its least count regardless)")
		trace     = flag.Int("trace", 0, "1: run one timed repetition, the traced repetition and the layer probes, and end with the per-layer metrics")
		traced    = flag.Bool("traced", false, "add the traced repetition to the timed ones")
		layers    = flag.Bool("layers", false, "add the layer probes")
		traceOut  = flag.String("trace-out", "", "Chrome trace file of the traced repetition (default .bench_build/trace-<workload>.json)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload (or -workload) twice at -seed and compare each end-to-end metric with its bound in BENCHMARK.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := config{
		seed: *seed, seconds: *seconds,
		traced: *traced || *trace == 1, layers: *layers || *trace == 1, oneRep: *trace == 1,
		traceOut: *traceOut,
	}
	if *selfcheck && *name == "" {
		if err := selfCheck(cfg, ""); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(fmt.Errorf("%w (have %s)", err, workloadNames()))
	}
	if *selfcheck {
		if err := selfCheck(cfg, w.name); err != nil {
			fatal(err)
		}
		return
	}
	res, err := measure(w, cfg)
	if err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(res.report, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", out)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := contractLine(os.Stdout, defs, res.values, res.report.OpsTotal, res.report.OpsFailed); err != nil {
		fatal(err)
	}
	if res.report.OpsFailed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is a finished run: the printed report and every metric by name.
type result struct {
	report report
	values values
}

// sample is one timed repetition.
type sample struct {
	setupS, runS  float64 // raw host seconds
	allocBytes    float64
	mallocs       float64
	liveBytes     float64
	gcCycles      uint32
	gcPauseMillis float64
	out           *outcome
}

// timedRep runs one untraced repetition, timing and memory-accounting its
// two phases. The reference loop runs between the phases and after the
// second, outside the accounted intervals.
func timedRep(w *workload, seed uint64, cal *calibrator) (sample, error) {
	var before, mid, mid2, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	st, err := w.setUp(seed, false)
	setup := time.Since(t0)
	runtime.ReadMemStats(&mid)
	if err != nil {
		return sample{}, err
	}
	cal.boundary()
	runtime.ReadMemStats(&mid2)
	t1 := time.Now()
	out := st.run(nil)
	run := time.Since(t1)
	runtime.ReadMemStats(&after)

	// What the finished run retains: the started scenario (the fleet, its
	// network and path cache, every app's series) is still referenced here.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(st)
	cal.boundary()

	return sample{
		setupS: setup.Seconds(), runS: run.Seconds(),
		allocBytes:    float64(mid.TotalAlloc - before.TotalAlloc + after.TotalAlloc - mid2.TotalAlloc),
		mallocs:       float64(mid.Mallocs - before.Mallocs + after.Mallocs - mid2.Mallocs),
		liveBytes:     float64(live.HeapAlloc) - float64(before.HeapAlloc),
		gcCycles:      mid.NumGC - before.NumGC + after.NumGC - mid2.NumGC,
		gcPauseMillis: float64(mid.PauseTotalNs-before.PauseTotalNs+after.PauseTotalNs-mid2.PauseTotalNs) / 1e6,
		out:           out,
	}, nil
}

// measure runs one workload: calibration, the timed repetitions, then the
// traced repetition and the layer probes when asked for.
func measure(w *workload, cfg config) (*result, error) {
	cal := &calibrator{}
	cal.warm()

	least, budget := w.simReps, time.Duration(cfg.seconds*float64(time.Second))
	if cfg.oneRep {
		least, budget = 1, 0
	}
	var (
		samples   []sample
		failures  []string
		failedOps int
		start     = time.Now()
	)
	for r := 0; ; r++ {
		if r >= least {
			// Stop rather than overrun: the next repetition takes about as
			// long as the last.
			last := samples[r-1]
			next := time.Duration((last.setupS + last.runS) * float64(time.Second))
			if time.Since(start)+next > budget {
				break
			}
		}
		s, err := timedRep(w, cfg.seed+uint64(r), cal)
		if err != nil {
			return nil, err
		}
		if bad := w.check(s.out); len(bad) > 0 {
			failedOps++
			failures = append(failures, fmt.Sprintf("rep %d (seed %d): %s", r, cfg.seed+uint64(r), strings.Join(bad, "; ")))
		}
		samples = append(samples, s)
	}

	vs := values{}
	rep := report{
		Workload: w.name, Why: w.why, Seed: cfg.seed,
		Repetitions: len(samples), SimRepetitions: min(w.simReps, len(samples)),
		OpsTotal: len(samples),
	}
	endToEndValues(vs, w, samples, rep.SimRepetitions, cal)
	rep.SimFingerprint = fingerprintOf(samples[:rep.SimRepetitions])
	hostValues(vs, samples, cal)

	if cfg.traced {
		rep.OpsTotal++
		traceFile, why, err := tracedRep(vs, w, cfg, samples[0], cal)
		if err != nil {
			return nil, err
		}
		rep.TraceFile = traceFile
		if why != "" {
			failures = append(failures, "traced rep: "+why)
			failedOps++
		}
	}
	if cfg.layers {
		runProbes(vs, cfg.seed, cal)
	}
	if w.fleet == nil {
		rep.Accuracy = paperAccuracy(vs, samples[:rep.SimRepetitions])
	}
	rep.OpsFailed, rep.Failures = failedOps, failures
	if !cfg.oneRep {
		rep.EndToEnd = rows(endToEnd, vs)
	}
	rep.PerLayer = rows(perLayer, vs)
	return &result{report: rep, values: vs}, nil
}

func column(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// endToEndValues fills the end-to-end metrics. Host times are medians over
// every repetition, normalised by the run's reference-loop median; simulated
// statistics are over the first simReps repetitions only, so they are exact
// under a seed.
func endToEndValues(vs values, w *workload, samples []sample, simReps int, cal *calibrator) {
	n := len(samples)
	apps := float64(w.apps)
	host := func(name string, scale float64, f func(sample) float64) {
		xs := column(samples, f)
		v := value{v: median(xs) * cal.scale() * scale, n: n}
		if p, t, ok := tail(xs); ok {
			v.tailP, v.tailV = p, t*cal.scale()*scale
		}
		vs[name] = v
	}
	host("setup_s", 1, func(s sample) float64 { return s.setupS })
	host("run_s", 1, func(s sample) float64 { return s.runS })
	host("wall_ms_per_app", 1e3/apps, func(s sample) float64 { return s.setupS + s.runS })
	vs.set("alloc_mb_per_app", median(column(samples, func(s sample) float64 { return s.allocBytes }))/apps/1e6, n)
	vs.set("mallocs_per_app", median(column(samples, func(s sample) float64 { return s.mallocs }))/apps, n)
	vs.set("live_mb_per_app", median(column(samples, func(s sample) float64 { return s.liveBytes }))/apps/1e6, n)

	var frac, repairSeconds, repairs, responses float64
	for _, s := range samples[:simReps] {
		frac += s.out.fracAbove
		repairSeconds += s.out.repairSeconds
		repairs += float64(s.out.repairs)
		responses += float64(s.out.responses)
	}
	vs.set("sim_frac_above_bound", frac/float64(simReps), simReps)
	vs.set("sim_responses_per_app", responses/float64(simReps)/apps, simReps)
	if repairs > 0 {
		vs.set(simRepairS.name, repairSeconds/repairs, int(repairs))
	}
}

// fingerprintOf is the SHA-256 over the repetitions' fingerprints: two
// commits that print the same value produced identical simulated statistics.
func fingerprintOf(samples []sample) string {
	h := sha256.New()
	for _, s := range samples {
		h.Write(s.out.fingerprint[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostValues fills the host.* block: what explains a moved host-time metric
// that no layer accounts for.
func hostValues(vs values, samples []sample, cal *calibrator) {
	n := len(samples)
	vs.set("host.calib_ms", median(cal.samples)*1e3, len(cal.samples))
	vs.set("host.raw_setup_s", median(column(samples, func(s sample) float64 { return s.setupS })), n)
	vs.set("host.raw_run_s", median(column(samples, func(s sample) float64 { return s.runS })), n)
	vs.set("host.gc_cycles", median(column(samples, func(s sample) float64 { return float64(s.gcCycles) })), n)
	vs.set("host.gc_pause_ms", median(column(samples, func(s sample) float64 { return s.gcPauseMillis })), n)
	vs.set("host.peak_rss_mb", peakRSSMB(), 1)
	vs.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 1)
	vs.set("host.nproc", float64(runtime.NumCPU()), 1)
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where the
// platform has no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// tracedRep runs repetition 0 once more with the simulator's tracer on and
// the benchmark's own spans around each call, checks that it reproduced its
// timed twin, fills the counter-derived layer metrics and writes the Chrome
// trace. why is non-empty when the traced repetition counts as failed.
func tracedRep(vs values, w *workload, cfg config, twin sample, cal *calibrator) (traceFile, why string, err error) {
	rec := newRecorder(cfg.seed)
	runtime.GC()
	root := rec.begin("repetition")
	id := rec.begin("scenario.start")
	st, err := w.setUp(cfg.seed, true)
	rec.end(id)
	if err != nil {
		return "", "", err
	}
	out := st.run(rec)
	rec.end(root)
	cal.boundary()

	var reasons []string
	if !sameOutputs(twin.out, out) {
		reasons = append(reasons, "outputs differ from the timed repetition of the same seed")
	}
	reasons = append(reasons, w.check(out)...)
	counterValues(vs, w, rec, out, twin, cal)

	traceFile = cfg.traceOut
	if traceFile == "" {
		traceFile = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	if err := writeTrace(rec, w.name, traceFile); err != nil {
		reasons = append(reasons, err.Error())
	}
	return traceFile, strings.Join(reasons, "; "), nil
}

// writeTrace writes the Chrome trace and reads it back to show it loads.
func writeTrace(rec *recorder, workload, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := rec.writeChrome(f, workload); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var loaded struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &loaded); err != nil || len(loaded.TraceEvents) == 0 {
		return fmt.Errorf("trace: %s does not load as a Chrome trace: %v", path, err)
	}
	return nil
}

// counterValues derives the counter-based layer metrics from the traced
// repetition: the last counter snapshot, the outcome, and the window spans.
func counterValues(vs values, w *workload, rec *recorder, out *outcome, twin sample, cal *calibrator) {
	c := rec.final()
	apps := float64(w.apps)
	kind := func(k string) float64 { return c[kindCounter(k)] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	one := func(name string, v float64) { vs.set(name, v, 1) }
	perApp := func(name string, v float64) { vs.set(name, v/apps, w.apps) }
	scale := cal.scale()

	events := c[cExecuted]
	windows := rec.windowMillis()
	kernelSeconds := rec.leafSeconds(func(name string) bool { return isWindow(name) || name == "kernel.drain" })
	perApp("sim.kernel.events_per_app", events)
	one("sim.kernel.events_per_s", ratio(events, kernelSeconds*scale))
	vs.set("sim.kernel.window_ms_p50", median(windows)*scale, len(windows))
	vs.set("sim.kernel.window_ms_max", quantile(sorted(windows), 1)*scale, len(windows))

	one("netsim.solver.solves_per_event", ratio(c[cSolves], events))
	one("netsim.solver.components_per_solve", ratio(c[cComponents], c[cSolves]))
	perApp("netsim.flows.completed_per_app", c[cFlowsCompleted])
	perApp("netsim.msgs.sent_per_app", c[cMsgsSent])
	one("netsim.msgs.mean_lag_sim_ms", ratio(c[cMsgLag], c[cMsgsSent])*1e3)

	one("bus.shards_acquired", c[cBusShards])
	perApp("probes.samples_per_app", kind(kindProbeSample))
	perApp("gauges.updates_per_app", kind(kindGaugeUpdate))
	perApp("gauges.reports_per_app", kind(kindGaugeReport))
	perApp("gauges.lifecycle_ops_per_app", c[cGaugeOps])
	one("gauges.protocol_sim_s", c[cGaugeProtocol])

	perApp("core.reports_per_app", c[cReports])
	perApp("core.checks_per_app", c[cChecks])
	perApp("core.model_updates_per_app", kind(kindModelUpdate))
	perApp("constraint.violations_per_app", c[cViolations])

	perApp("repair.decides_per_app", kind(kindRepairDecide))
	one("repair.commit_ratio", ratio(float64(out.repairs), kind(kindRepairDecide)))
	one("repair.ops_per_repair", ratio(kind(kindOp), float64(out.repairs)))
	perApp("repair.alerts_per_app", float64(out.alerts))

	perApp("remos.queries_per_app", c[cRemosQueries])
	one("remos.cold_ratio", ratio(c[cRemosCold], c[cRemosQueries]))

	one("app.responses_per_event", ratio(float64(out.responses), events))
	one("app.dropped_ratio", ratio(float64(out.dropped), float64(out.responses+out.dropped)))

	one("fleet.placement.rejections", float64(out.rejections))
	one("fleet.placement.free_slots_end", float64(out.freeSlots))

	one("fleet.migration.verdicts", kind(kindVerdict))
	one("fleet.migration.decides", kind(kindMigrateDecide))
	one("fleet.migration.completed", float64(out.migCompleted))
	one("fleet.migration.aborted", float64(out.migAborted))
	one("fleet.migration.commit_ratio", ratio(float64(out.migCompleted), kind(kindMigrateDecide)))
	if w.fleet != nil && w.fleet.RankedMigration {
		one("fleet.migration.detect_sim_s_p50", rec.phases["detect"])
		one("fleet.migration.drain_sim_s_p50", rec.phases["drain"])
		one("fleet.migration.recover_sim_s_p50", rec.phases["recover"])
	}
	one("fleet.regionhealth.refreshes", kind(kindRegionHealth))

	one("fleet.openloop.scale_ups", float64(out.scaleUps))
	one("fleet.openloop.scale_downs", float64(out.scaleDowns))
	one("fleet.openloop.offered", float64(out.offered))
	one("fleet.openloop.admitted", float64(out.admitted))
	one("fleet.openloop.shed", float64(out.shed))

	perApp("obs.spans_per_app", c[cSpans])
	// Traced over untraced host time of the same work, the run phase: the
	// spans around the calls, which leave the counter snapshots out.
	tracedRun := rec.leafSeconds(func(name string) bool { return name != "scenario.start" })
	one("obs.trace.overhead_ratio", ratio(tracedRun, twin.runS))
}

// paperAccuracy fills the experiment.* metrics from the timed repetitions and
// returns the accuracy statement printed beside the simulated metrics.
func paperAccuracy(vs values, samples []sample) string {
	n := len(samples)
	col := func(f func(p *paperOutcome) float64) float64 {
		return mean(column(samples, func(s sample) float64 { return f(s.out.paper) }))
	}
	controlFinal := col(func(p *paperOutcome) float64 { return p.controlFinalFrac })
	first := col(func(p *paperOutcome) float64 { return p.firstViolation })
	repair := col(func(p *paperOutcome) float64 { return p.meanRepair })
	adaptiveFinal := col(func(p *paperOutcome) float64 { return p.adaptiveFinalFrac })
	vs.set("experiment.control_frac_above", col(func(p *paperOutcome) float64 { return p.controlFrac }), n)
	vs.set("experiment.control_final_frac_above", controlFinal, n)
	vs.set("experiment.first_violation_sim_s", first, n)
	vs.set("experiment.adaptive_final_frac_above", adaptiveFinal, n)
	vs.set("experiment.moves", col(func(p *paperOutcome) float64 { return float64(p.moves) }), n)
	vs.set("experiment.paper_error.repair_s", math.Abs(repair-paperRepairSeconds), n)
	vs.set("experiment.paper_error.first_violation_s", math.Abs(first-paperFirstViolationSeconds), n)
	return fmt.Sprintf("over %d seeds: control final-phase fraction above 2 s %.3f (paper: never recovers); "+
		"first violation at %.0f s (paper: about %.0f s); mean repair %.1f s (paper: averages %.0f s); "+
		"adaptive final-phase fraction above 2 s %.3f",
		n, controlFinal, first, paperFirstViolationSeconds, repair, paperRepairSeconds, adaptiveFinal)
}
