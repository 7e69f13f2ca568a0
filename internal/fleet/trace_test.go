package fleet

import (
	"bytes"
	"encoding/json"
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

	// The victim's phase distributions cover the whole loop.
	var victim *AppSummary
	for i := range r.Summaries {
		if r.Summaries[i].Name == "app00" {
			victim = &r.Summaries[i]
		}
	}
	if victim == nil || victim.Phases == nil {
		t.Fatal("no traced summary for app00")
	}
	for _, p := range []obs.Phase{obs.PhaseDetect, obs.PhaseDecide, obs.PhaseDrain, obs.PhaseRecover} {
		if victim.Phases.Dist(p).N() == 0 {
			t.Errorf("app00 has no %s phase samples", p)
		}
	}

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
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	// The rendered tables carry the phase block.
	if table := Table(r.Summaries); !bytes.Contains([]byte(table), []byte("phase latency")) {
		t.Fatalf("Table missing phase block:\n%s", table)
	}
	if table := CompareTable(r.Summaries, r.Summaries); !bytes.Contains([]byte(table), []byte("phase latency")) {
		t.Fatal("CompareTable missing phase block")
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
