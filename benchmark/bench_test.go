package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	asc := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.25: 20, 0.5: 30, 0.9: 46, 1: 50} {
		if got := quantile(asc, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	xs := []float64{5, 1, 4}
	median(xs)
	if xs[0] != 5 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{13, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, v, ok := tail(ramp(tc.n))
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("tail of %d samples = p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
		}
		if ok {
			if beyond := float64(tc.n-1) - v; beyond < 9 {
				t.Errorf("tail of %d samples: only %.1f samples beyond p%v", tc.n, beyond, p)
			}
		}
	}
}

func TestNormalise(t *testing.T) {
	// A host running at half speed doubles both the raw time and the
	// reference loop: the calibrated time does not move.
	nominal := normalise(0.8, []float64{0.05, 0.05, 0.05}, 0.05)
	slow := normalise(1.6, []float64{0.1, 0.1, 0.1}, 0.05)
	if math.Abs(nominal-0.8) > 1e-12 || math.Abs(slow-nominal) > 1e-12 {
		t.Errorf("nominal %v, slow %v, want both 0.8", nominal, slow)
	}
	// The median reference sample is used, so one disturbed sample is ignored.
	if got := normalise(1, []float64{0.05, 0.05, 0.5}, 0.05); math.Abs(got-1) > 1e-12 {
		t.Errorf("outlier moved the calibration: %v", got)
	}
}

func TestCalibrationLoopIsFixedWork(t *testing.T) {
	calibLoop()
	first := calibSink
	calibLoop()
	if calibSink != first {
		t.Errorf("reference loop computed %d then %d", first, calibSink)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]def(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != lower && d.better != higher {
			t.Errorf("metric %s: direction %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
}

// BENCHMARK.json repeats the workload and metric tables; it must not drift
// from what the program emits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	type fileMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []fileMetric `json:"end_to_end"`
		PerLayer   []fileMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in the program", len(file.Workloads), benchmarkFile, len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q", i, file.Workloads[i].Name, file.Workloads[i].Why)
		}
	}
	same := func(kind string, got []fileMetric, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in %s, %d in the program", kind, len(got), benchmarkFile, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
			if g.Bound != nil && (*g.Bound < 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside [0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
	if file.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v", file.Paths)
	}
}

func TestContractLineSchema(t *testing.T) {
	vs := values{}
	vs.set("setup_s", 0.5, 3)
	var buf bytes.Buffer
	if err := contractLine(&buf, endToEnd, vs, 7, 1); err != nil {
		t.Fatal(err)
	}
	if bytes.Count(buf.Bytes(), []byte("\n")) != 1 {
		t.Fatalf("not one line: %q", buf.String())
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]map[string]any
	for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(line[key], into); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
	if correct || attempted != 7 || failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want every end-to-end metric (%d)", len(metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m := metrics[d.name]
		if len(m) != 2 || m["unit"] != d.unit {
			t.Errorf("metric %s: %v", d.name, m)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Errorf("metric %s: value %v", d.name, m["value"])
		}
	}
	if metrics["setup_s"]["value"] != 0.5 {
		t.Errorf("setup_s = %v", metrics["setup_s"]["value"])
	}
}

func TestReportRows(t *testing.T) {
	vs := values{}
	vs.set("run_s", 1.25, 20)
	vs["setup_s"] = value{v: 0.4, n: 40, tailP: 75, tailV: 0.6}
	got := rows(endToEnd, vs)
	if len(got) != 2 || got[0].Name != "setup_s" || got[1].Name != "run_s" {
		t.Fatalf("rows = %+v, want the measured metrics in table order", got)
	}
	if got[0].Tail == nil || got[0].Tail.Percentile != 75 || got[1].Tail != nil {
		t.Errorf("tails: %+v %+v", got[0].Tail, got[1].Tail)
	}
	if got[1].Unit != "s" || got[1].Better != lower || got[1].N != 20 {
		t.Errorf("row %+v", got[1])
	}
}

func TestRecorderSpansAndChromeTrace(t *testing.T) {
	rec := newRecorder(42)
	root := rec.begin("repetition")
	a := rec.begin("kernel.run.w000")
	rec.end(a)
	rec.snapshot(60, map[string]float64{"sim.kernel.executed": 10})
	b := rec.begin("kernel.drain")
	rec.end(b)
	rec.end(root)
	if rec.spans[a].parent != root || rec.spans[b].parent != root || rec.spans[root].parent != -1 {
		t.Errorf("parents: %+v", rec.spans)
	}
	if len(rec.windowMillis()) != 1 {
		t.Errorf("windows %v", rec.windowMillis())
	}
	leaves := rec.leafSeconds(func(string) bool { return true })
	whole := (rec.spans[root].end - rec.spans[root].start).Seconds()
	if leaves <= 0 || leaves > whole {
		t.Errorf("leaf time %v outside (0, %v]", leaves, whole)
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf, "unit"); err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, e := range loaded.TraceEvents {
		phases[e.Ph]++
	}
	if phases["X"] != 3 || phases["C"] != 1 || phases["M"] != 1 {
		t.Errorf("events by phase: %v", phases)
	}
}

// Every workload literal must be accepted by the simulator. Fleet sizes are
// cut to four apps so this stays a start-up check, not a run.
func TestWorkloadLiteralsStart(t *testing.T) {
	for _, w := range workloads {
		if w.fleet != nil {
			small := *w.fleet
			small.Apps = 4
			w.fleet = &small
		}
		if _, err := w.setUp(1, false); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestWorkloadCheckReportsFailures(t *testing.T) {
	w, err := workloadByName("fleet-churn")
	if err != nil {
		t.Fatal(err)
	}
	good := &outcome{apps: 48, retired: 48, migCompleted: 3}
	if bad := w.check(good); len(bad) != 0 {
		t.Errorf("good outcome failed: %v", bad)
	}
	if bad := w.check(&outcome{apps: 47, retired: 47}); len(bad) != 2 {
		t.Errorf("want an admission and a migration failure, got %v", bad)
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
