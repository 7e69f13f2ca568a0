package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func fixedClock(t *float64) func() float64 { return func() float64 { return *t } }

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must be disabled")
	}
	if id := tr.Instant(KindProbeSample, 0, "a", "x", 1, 2); id != 0 {
		t.Fatalf("nil Instant returned %d", id)
	}
	if id := tr.Begin(KindDrain, 0, "a", "x", 0, 0); id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.EndSpan(1)
	tr.KernelEvent(5)
	tr.RecordPhase("a", PhaseDetect, 1)
	if tr.Len() != 0 || tr.Spans() != nil || tr.PhasesFor("a") != nil || tr.KernelBuckets() != nil {
		t.Fatal("nil tracer leaked state")
	}
	if _, ok := tr.Ancestor(1, KindProbeSample); ok {
		t.Fatal("nil Ancestor found something")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil chrome export is not JSON: %v", err)
	}
}

func TestSpanTreeAndAncestor(t *testing.T) {
	now := 0.0
	tr := New(fixedClock(&now))
	probe := tr.Instant(KindProbeSample, 0, "app00", "C1", 3.5, 0)
	now = 1
	upd := tr.Instant(KindGaugeUpdate, probe, "app00", "latency:C1", 3.5, 0)
	now = 2
	rep := tr.Instant(KindGaugeReport, upd, "app00", "latency:C1", 3.5, 0)
	now = 3
	viol := tr.Instant(KindViolation, rep, "app00", "C1/latency", 3.5, 2)

	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	sp, ok := tr.Get(viol)
	if !ok || sp.Kind != KindViolation || sp.Parent != rep || sp.Start != 3 {
		t.Fatalf("Get(viol) = %+v ok=%v", sp, ok)
	}
	anc, ok := tr.Ancestor(viol, KindProbeSample)
	if !ok || anc.ID != probe {
		t.Fatalf("Ancestor(viol, probe) = %+v ok=%v", anc, ok)
	}
	// Ancestor excludes the span itself.
	if _, ok := tr.Ancestor(probe, KindProbeSample); ok {
		t.Fatal("Ancestor matched the span itself")
	}
	// A forward/bogus parent is clamped to root rather than recorded.
	bogus := tr.Instant(KindVerdict, SpanID(99), "app00", "unhealthy", 1, 0)
	if sp, _ := tr.Get(bogus); sp.Parent != 0 {
		t.Fatalf("bogus parent kept: %d", sp.Parent)
	}

	// Origin: the probe sample's start when the chain has one, else the
	// span's own start; an unknown span has none.
	if at, ok := tr.Origin(viol); !ok || at != 0 {
		t.Fatalf("Origin(viol) = %v ok=%v, want the probe's 0", at, ok)
	}
	if at, ok := tr.Origin(bogus); !ok || at != 3 {
		t.Fatalf("Origin(bogus) = %v ok=%v, want its own start 3", at, ok)
	}
	if _, ok := tr.Origin(0); ok {
		t.Fatal("Origin of no span reported a start")
	}
	if at := tr.StartOf(rep); at != 2 {
		t.Fatalf("StartOf(rep) = %v, want 2", at)
	}
}

func TestBeginEndSpan(t *testing.T) {
	now := 10.0
	tr := New(fixedClock(&now))
	d := tr.Begin(KindDrain, 0, "app00", "drain", 0, 0)
	if sp, _ := tr.Get(d); sp.End != -1 {
		t.Fatalf("open span End = %v", sp.End)
	}
	now = 25
	tr.EndSpan(d)
	sp, _ := tr.Get(d)
	if sp.End != 25 {
		t.Fatalf("End = %v, want 25", sp.End)
	}
	// Double-close is a no-op.
	now = 40
	tr.EndSpan(d)
	if sp, _ := tr.Get(d); sp.End != 25 {
		t.Fatalf("double EndSpan moved End to %v", sp.End)
	}
	tr.EndSpan(999) // unknown: no-op
}

func TestKernelBuckets(t *testing.T) {
	now := 0.0
	tr := New(fixedClock(&now))
	tr.KernelEvent(0)
	tr.KernelEvent(9.99)
	tr.KernelEvent(10)
	tr.KernelEvent(35)
	b := tr.KernelBuckets()
	if len(b) != 4 || b[0] != 2 || b[1] != 1 || b[2] != 0 || b[3] != 1 {
		t.Fatalf("buckets = %v", b)
	}
}

func TestPhases(t *testing.T) {
	now := 0.0
	tr := New(fixedClock(&now))
	tr.RecordPhase("b", PhaseDetect, 12)
	tr.RecordPhase("a", PhaseDetect, 8)
	tr.RecordPhase("b", PhaseDrain, 30)
	tr.RecordPhase("b", PhaseDetect, 4)

	if apps := tr.PhaseApps(); len(apps) != 2 || apps[0] != "b" || apps[1] != "a" {
		t.Fatalf("PhaseApps = %v", apps)
	}
	ps := tr.PhasesFor("b")
	if ps == nil || ps.Dist(PhaseDetect).N() != 2 || ps.Dist(PhaseDrain).N() != 1 {
		t.Fatalf("phases for b: %+v", ps)
	}
	if got := ps.Dist(PhaseDetect).Percentile(50); got != 4 {
		t.Fatalf("p50 detect = %v, want 4", got)
	}
	if tr.PhasesFor("missing") != nil {
		t.Fatal("PhasesFor(missing) != nil")
	}
	merged := &PhaseSet{}
	merged.Merge(tr.PhasesFor("a"))
	merged.Merge(tr.PhasesFor("b"))
	if merged.Dist(PhaseDetect).N() != 3 {
		t.Fatalf("merged detect N = %d", merged.Dist(PhaseDetect).N())
	}
	// Negative samples and out-of-range phases are dropped, not recorded.
	tr.RecordPhase("a", PhaseDecide, -1)
	tr.RecordPhase("a", NumPhases, 1)
	if tr.PhasesFor("a").Dist(PhaseDecide).N() != 0 {
		t.Fatal("negative sample recorded")
	}
}

func buildSampleTrace() *Tracer {
	now := 0.0
	tr := New(fixedClock(&now))
	probe := tr.Instant(KindProbeSample, 0, "app00", "C1", 3.5, 0)
	now = 2
	rep := tr.Instant(KindGaugeReport, probe, "app00", "latency:C1", 3.5, 0)
	now = 5
	dec := tr.Instant(KindMigrateDecide, rep, "app00", "ranked", -0.2, 0.9)
	drain := tr.Begin(KindDrain, dec, "app00", "drain", 0, 0)
	now = 20
	tr.EndSpan(drain)
	tr.Instant(KindRegionHealth, 0, "", "region3", 0.8, 9.5e6)
	tr.Begin(KindRecover, dec, "app00", "recover", 0, 0) // left open
	tr.KernelEvent(3)
	tr.KernelEvent(14)
	return tr
}

func TestWriteJSONL(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("%d lines for %d spans", len(lines), tr.Len())
	}
	for _, line := range lines {
		var sp jsonlSpan
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if sp.End < sp.Start {
			t.Fatalf("unclamped open span: %+v", sp)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var phs []string
	cats := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		ph, _ := ev["ph"].(string)
		phs = append(phs, ph)
		if cat, ok := ev["cat"].(string); ok {
			cats[cat]++
		}
	}
	for _, want := range []string{"M", "X", "i", "C", "s", "f"} {
		found := false
		for _, ph := range phs {
			if ph == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q event in chrome export", want)
		}
	}
	if cats["migrate.decide"] == 0 || cats["region.health"] == 0 || cats["flow"] == 0 {
		t.Fatalf("missing categories: %v", cats)
	}

	// Same trace exports byte-identically (determinism).
	var buf2 bytes.Buffer
	if err := buildSampleTrace().WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome export is not deterministic")
	}
}
