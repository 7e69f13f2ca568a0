package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"archadapt/internal/obs"
)

// traceOpts is the traced acceptance scenario: the region-collapse rescue
// with ranked targeting, so the trace carries the full fleet decision chain
// (verdicts, ranked decide, reserve, drain, cutover, recovery, region
// health) on top of the per-app control loops.
func traceOpts(trace bool) ScenarioOptions {
	opts := regionCollapseOpts(true)
	opts.Migration.Ranked = true
	opts.Trace = trace
	return opts
}

// TestTraceOffIsByteIdentical is the purity contract: tracing only observes.
// A traced run must produce exactly the summaries and migration records of
// the same-seed untraced run — the only difference is the attached PhaseSets.
func TestTraceOffIsByteIdentical(t *testing.T) {
	off, err := RunScenario(traceOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	on, err := RunScenario(traceOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if off.Fleet.Tracer() != nil {
		t.Fatal("untraced fleet has a tracer")
	}
	if on.Fleet.Tracer() == nil {
		t.Fatal("traced fleet has no tracer")
	}
	if len(off.Summaries) != len(on.Summaries) {
		t.Fatalf("summary counts differ: %d vs %d", len(off.Summaries), len(on.Summaries))
	}
	for i, a := range off.Summaries {
		b := on.Summaries[i]
		if a.Phases != nil {
			t.Fatalf("untraced summary %s carries phases", a.Name)
		}
		if b.Phases == nil {
			t.Fatalf("traced summary %s has nil phases", b.Name)
		}
		b.Phases = nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("summary %s differs with tracing on:\noff: %+v\non:  %+v", a.Name, a, b)
		}
	}
	for _, name := range off.Fleet.Apps() {
		ma, mb := off.Fleet.App(name).Migrations, on.Fleet.App(name).Migrations
		if !reflect.DeepEqual(ma, mb) {
			t.Fatalf("%s migration records differ with tracing on:\noff: %+v\non:  %+v", name, ma, mb)
		}
	}
}

// TestTraceCausalChain runs the traced region-collapse scenario and walks
// the span tree: the control loop's layers must be causally linked from
// probe samples all the way to migration cutover and recovery.
func TestTraceCausalChain(t *testing.T) {
	r, err := RunScenario(traceOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Fleet.Tracer()

	seen := map[obs.Kind]bool{}
	for _, sp := range tr.Spans() {
		seen[sp.Kind] = true
	}
	for _, k := range []obs.Kind{
		obs.KindProbeSample, obs.KindGaugeUpdate, obs.KindGaugeReport,
		obs.KindModelUpdate, obs.KindViolation, obs.KindVerdict,
		obs.KindMigrateDecide, obs.KindReserve, obs.KindDrain,
		obs.KindCutover, obs.KindRecover, obs.KindRegionHealth,
	} {
		if !seen[k] {
			t.Errorf("no %s spans in the trace", k)
		}
	}

	// Every migration decision must be causally rooted in the monitoring
	// plane: a probe sample where the chain has one, at least a gauge report
	// otherwise (bandwidth updates are rooted at the Remos reply).
	decides := 0
	for _, sp := range tr.Spans() {
		if sp.Kind != obs.KindMigrateDecide {
			continue
		}
		decides++
		if _, ok := tr.Ancestor(sp.ID, obs.KindProbeSample, obs.KindGaugeReport); !ok {
			t.Errorf("migrate.decide span %d (%s %s) has no probe/report ancestor", sp.ID, sp.App, sp.Name)
		}
		if sp.App != "app00" {
			t.Errorf("migrate.decide for %s; only app00's region collapsed", sp.App)
		}
	}
	if decides == 0 {
		t.Fatal("no migrate.decide spans")
	}

	// Drain spans of completed migrations are closed and match the records.
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindDrain && sp.End < sp.Start {
			t.Errorf("drain span %d left open", sp.ID)
		}
	}

	// The victim's phase distributions cover the whole loop, pinned exactly:
	// detection through the core and fleet loops, the fleet's decide (first
	// unhealthy verdict to migration commit), drain and recovery.
	checkPhases(t, r.Summaries, []string{
		"detect n=7 p50=2 p95=6.143635577566272 p99=6.143635577566272",
		"decide n=1 p50=45 p95=45 p99=45",
		"drain n=1 p50=30 p95=30 p99=30",
		"recover n=1 p50=60 p95=60 p99=60",
	})

	// Kernel event-rate counters cover the run.
	total := uint64(0)
	for _, n := range tr.KernelBuckets() {
		total += n
	}
	if total == 0 {
		t.Fatal("kernel event counters empty")
	}

	// Both exporters accept the real trace.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkChromeExport(t, buf.Bytes())

	// The rendered tables carry the phase block.
	if table := Table(r.Summaries); !bytes.Contains([]byte(table), []byte("phase latency")) {
		t.Fatalf("Table missing phase block:\n%s", table)
	}
	if table := CompareTable(r.Summaries, r.Summaries); !bytes.Contains([]byte(table), []byte("phase latency")) {
		t.Fatal("CompareTable missing phase block")
	}
}

// checkChromeExport validates the Chrome trace_event export of a real trace
// as a timeline viewer reads it: a trace that loads can still be causally
// broken (orphaned spans, decisions with no monitoring ancestry), and no
// viewer would complain.
func checkChromeExport(t *testing.T, raw []byte) {
	t.Helper()
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit is %q, want \"ms\"", parsed.DisplayTimeUnit)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}
	catOf := map[uint64]string{}    // span ID -> category
	parentOf := map[uint64]uint64{} // span ID -> parent span ID
	byCat := map[string]int{}
	procs, counters, ranked := 0, 0, 0
	for i, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
			}
			continue
		case "C":
			counters++
			byCat[ev.Cat]++
			continue
		case "s", "f":
			continue
		case "X", "i":
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
		byCat[ev.Cat]++
		if ev.Cat == obs.KindMigrateDecide.String() && ev.Name == "ranked" {
			ranked++
		}
		id, ok := ev.Args["span"].(float64)
		if !ok {
			t.Fatalf("%s event %d (%s) has no numeric args.span", ev.Ph, i, ev.Name)
		}
		parent, ok := ev.Args["parent"].(float64)
		if !ok {
			t.Fatalf("span %v (%s) has no numeric args.parent", id, ev.Name)
		}
		if _, dup := catOf[uint64(id)]; dup {
			t.Fatalf("span %v exported twice", id)
		}
		if parent != 0 && parent >= id {
			t.Fatalf("span %v has parent %v: causes must precede effects", id, parent)
		}
		catOf[uint64(id)] = ev.Cat
		parentOf[uint64(id)] = uint64(parent)
	}
	for id, parent := range parentOf {
		if _, ok := catOf[parent]; parent != 0 && !ok {
			t.Fatalf("span %d references unexported parent %d", id, parent)
		}
	}
	if procs < 2 {
		t.Errorf("want fleet and app process rows, found %d", procs)
	}
	if counters == 0 {
		t.Error("no counter events")
	}
	for _, k := range []obs.Kind{
		obs.KindProbeSample, obs.KindGaugeUpdate, obs.KindGaugeReport,
		obs.KindModelUpdate, obs.KindViolation, obs.KindVerdict,
		obs.KindMigrateDecide, obs.KindDrain, obs.KindCutover, obs.KindRecover,
	} {
		if byCat[k.String()] == 0 {
			t.Errorf("no %s events in the export", k)
		}
	}
	// A ranked decision without the region-health index it consulted is a
	// broken trace.
	if ranked > 0 && byCat[obs.KindRegionHealth.String()] == 0 {
		t.Errorf("%d ranked migrate.decide events but no region.health counters", ranked)
	}
	// Every exported migration decision walks back to the monitoring plane.
	for id, cat := range catOf {
		if cat != obs.KindMigrateDecide.String() {
			continue
		}
		rooted := false
		for p := parentOf[id]; p != 0 && !rooted; p = parentOf[p] {
			rooted = catOf[p] == obs.KindProbeSample.String() || catOf[p] == obs.KindGaugeReport.String()
		}
		if !rooted {
			t.Errorf("exported migrate.decide span %d has no probe/report ancestor", id)
		}
	}
}

// TestTraceRepairPhases pins the phase distributions of the same traced
// scenario with migration off, where the victim's decide, drain and recover
// samples come from the core manager's repair episode instead of the fleet's
// migration.
func TestTraceRepairPhases(t *testing.T) {
	opts := traceOpts(true)
	opts.Migration.Enabled = false
	r, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkPhases(t, r.Summaries, []string{
		"detect n=5 p50=1.818347999999986 p95=6.143635577566272 p99=6.143635577566272",
		"decide n=1 p50=584 p95=584 p99=584",
		"drain n=1 p50=30.2783040000013 p95=30.2783040000013 p99=30.2783040000013",
		"recover n=1 p50=1.7216959999987012 p95=1.7216959999987012 p99=1.7216959999987012",
	})
}

// checkPhases compares app00's phase distributions, and the fleet-wide merge
// the tables print, against want (one line per phase, in phase order). Only
// app00's region collapses, so both scopes must read the same.
func checkPhases(t *testing.T, sums []AppSummary, want []string) {
	t.Helper()
	all := &obs.PhaseSet{}
	var victim *obs.PhaseSet
	for _, s := range sums {
		all.Merge(s.Phases)
		if s.Name == "app00" {
			victim = s.Phases
		}
	}
	if victim == nil {
		t.Fatal("no traced phases for app00")
	}
	for _, sc := range []struct {
		scope string
		ps    *obs.PhaseSet
	}{{"app00", victim}, {"fleet", all}} {
		scope, ps := sc.scope, sc.ps
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			d := ps.Dist(p)
			got := fmt.Sprintf("%s n=%d p50=%v p95=%v p99=%v", p, d.N(), d.Percentile(50), d.Percentile(95), d.Percentile(99))
			if got != want[p] {
				t.Errorf("%s phase:\n got %s\nwant %s", scope, got, want[p])
			}
		}
	}
}

// TestTraceDeterministic: same-seed traced runs must produce identical span
// trees, phase percentiles, kernel counters and Chrome exports.
func TestTraceDeterministic(t *testing.T) {
	r1, err := RunScenario(traceOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(traceOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := r1.Fleet.Tracer(), r2.Fleet.Tracer()
	if !reflect.DeepEqual(t1.Spans(), t2.Spans()) {
		t.Fatal("span trees differ between identical traced runs")
	}
	if !reflect.DeepEqual(t1.KernelBuckets(), t2.KernelBuckets()) {
		t.Fatal("kernel counters differ between identical traced runs")
	}
	for _, app := range t1.PhaseApps() {
		p1, p2 := t1.PhasesFor(app), t2.PhasesFor(app)
		if p2 == nil {
			t.Fatalf("%s has phases in run 1 only", app)
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			for _, q := range []float64{50, 95, 99} {
				if v1, v2 := p1.Dist(p).Percentile(q), p2.Dist(p).Percentile(q); v1 != v2 {
					t.Fatalf("%s %s p%.0f differs: %v vs %v", app, p, q, v1, v2)
				}
			}
		}
	}
	var b1, b2 bytes.Buffer
	if err := t1.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := t2.WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome exports differ between identical traced runs")
	}
}
