package chaos

import (
	"encoding/json"
	"go/parser"
	"reflect"
	"strings"
	"testing"

	"archadapt/internal/fleet"
)

// TestGenerateDeterministic pins the fuzzer's contract: the same seed always
// yields the same scenario and the same migrate-mode policy, and nearby seeds
// yield different ones (the generator actually consumes its entropy).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic:\n%s\nvs\n%s", seed, fleet.FormatOptions(a), fleet.FormatOptions(b))
		}
		if pa, pb := MigratePolicy(seed), MigratePolicy(seed); pa != pb {
			t.Fatalf("seed %d: MigratePolicy not deterministic: %+v vs %+v", seed, pa, pb)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Error("seeds 1 and 2 generated identical scenarios; the generator is ignoring its seed")
	}
}

// TestGenerateBounds asserts every generated scenario stays inside the sizes
// the package documents, across a seed sweep — the property that keeps a
// soak run fast and the fault schedule's windows inside the scripted time.
func TestGenerateBounds(t *testing.T) {
	for seed := uint64(0); seed < 128; seed++ {
		o := Generate(seed)
		if o.Apps < 2 || o.Apps > 6 {
			t.Fatalf("seed %d: Apps = %d outside [2,6]", seed, o.Apps)
		}
		if o.Duration < 240 || o.Duration > 480 {
			t.Fatalf("seed %d: Duration = %g outside [240,480]", seed, o.Duration)
		}
		if len(o.Faults) < 3 {
			t.Fatalf("seed %d: only %d faults", seed, len(o.Faults))
		}
		for i, flt := range o.Faults {
			if flt.At < 0 || flt.At > o.Duration {
				t.Fatalf("seed %d: fault %d fires at %g outside the %g s run", seed, i, flt.At, o.Duration)
			}
			if flt.Duration > 0 && flt.At+flt.Duration > o.Duration {
				t.Fatalf("seed %d: fault %d restore at %g lands past the %g s run — the end state could not be clean",
					seed, i, flt.At+flt.Duration, o.Duration)
			}
			if i > 0 && flt.At < o.Faults[i-1].At {
				t.Fatalf("seed %d: fault schedule not sorted by At", seed)
			}
		}
		// StartScenario validates its options first and reports bad input as
		// an error; nothing the generator emits may trip it.
		if _, err := fleet.StartScenario(o); err != nil {
			t.Fatalf("seed %d: generated scenario rejected: %v", seed, err)
		}
		p := MigratePolicy(seed)
		if !p.Enabled || p.MaxConcurrent < 1 || p.MaxConcurrent > 3 {
			t.Fatalf("seed %d: generated policy out of bounds: %+v", seed, p)
		}
	}
}

// TestGenerateOpenLoopBounds sweeps seeds for the open-loop draw: a healthy
// fraction of seeds enable the engine, every enabled policy validates (the
// scenario would fail to start otherwise), and every fuzzed arrival spec
// resolves to a process.
func TestGenerateOpenLoopBounds(t *testing.T) {
	enabled := 0
	for seed := uint64(0); seed < 128; seed++ {
		o := Generate(seed)
		if !o.OpenLoop.Enabled {
			for _, s := range o.AppMix {
				if !reflect.DeepEqual(s.Arrivals, fleet.ArrivalSpec{}) {
					t.Fatalf("seed %d: closed-loop scenario carries an arrival spec: %+v", seed, s.Arrivals)
				}
			}
			continue
		}
		enabled++
		p := o.OpenLoop
		if p.Users < 1000 || p.Users > 10000 {
			t.Fatalf("seed %d: Users = %d outside [1000,10000]", seed, p.Users)
		}
		if p.Scale.MaxReplicas < 1 || p.Scale.MaxReplicas > 4 {
			t.Fatalf("seed %d: MaxReplicas = %d outside [1,4]", seed, p.Scale.MaxReplicas)
		}
		for i, s := range o.AppMix {
			if reflect.DeepEqual(s.Arrivals, fleet.ArrivalSpec{}) {
				t.Fatalf("seed %d: open-loop scenario shape %d has no arrival spec", seed, i)
			}
		}
	}
	if enabled < 16 {
		t.Fatalf("only %d of 128 seeds enabled the open-loop engine; the draw is broken", enabled)
	}
}

// TestCheckOpenLoopSeedClean runs the full invariant battery (both modes,
// including the openloop ledger/replica-cap invariant) on the first few
// seeds that enable the open-loop engine.
func TestCheckOpenLoopSeedClean(t *testing.T) {
	checked := 0
	for seed := uint64(0); seed < 64 && checked < 3; seed++ {
		if !Generate(seed).OpenLoop.Enabled {
			continue
		}
		checked++
		for _, v := range CheckSeed(seed) {
			t.Errorf("%s", v)
		}
	}
	if checked == 0 {
		t.Fatal("no open-loop seed in 0..63")
	}
}

// TestScenarioOptionsJSONRoundTrip is the chaos-vocabulary portability test:
// a generated scenario encodes to JSON, decodes back to a DeepEqual value,
// and the decoded copy runs to a byte-identical fingerprint. This is what
// lets a failing seed be reported, stored, and replayed as plain data.
func TestScenarioOptionsJSONRoundTrip(t *testing.T) {
	for _, seed := range []uint64{3, 17, 41} {
		opts := Generate(seed)
		opts.Migration = MigratePolicy(seed)

		blob, err := json.Marshal(opts)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var decoded fleet.ScenarioOptions
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if !reflect.DeepEqual(opts, decoded) {
			t.Fatalf("seed %d: options changed across the JSON round-trip:\n%s\nvs\n%s",
				seed, fleet.FormatOptions(opts), fleet.FormatOptions(decoded))
		}

		orig, err := fleet.RunScenario(opts)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		replay, err := fleet.RunScenario(decoded)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if f1, f2 := Fingerprint(orig), Fingerprint(replay); f1 != f2 {
			t.Fatalf("seed %d: decoded scenario ran differently:\n--- original\n%s--- replay\n%s", seed, f1, f2)
		}
	}
}

// TestCheckSeedCleanRange soaks a short seed range in both modes — the same
// check cmd/soak runs at scale — and requires every invariant to hold.
func TestCheckSeedCleanRange(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, v := range CheckSeed(seed) {
			t.Errorf("%s", v)
		}
	}
}

// TestShrinkMinimizes drives ddmin with a synthetic predicate — the failure
// is "the schedule still contains the marker fault" — and requires the
// shrunk scenario to be minimal: exactly the marker, one app, no admission
// churn, the duration floor.
func TestShrinkMinimizes(t *testing.T) {
	marker := fleet.Fault{At: 77, Kind: fleet.FaultRetire, App: 5}
	opts := Generate(9)
	opts.AdmitWaves, opts.RetireAfter, opts.AdmitStagger = 2, 100, 5
	opts.Faults = append(opts.Faults, marker)

	calls := 0
	fails := func(o fleet.ScenarioOptions) bool {
		calls++
		for _, flt := range o.Faults {
			if flt == marker {
				return true
			}
		}
		return false
	}
	got := Shrink(opts, fails, 0)

	if len(got.Faults) != 1 || got.Faults[0] != marker {
		t.Fatalf("shrunk schedule = %+v, want exactly the marker fault", got.Faults)
	}
	if got.Apps != 1 {
		t.Errorf("Apps = %d, want 1", got.Apps)
	}
	if got.AdmitWaves != 0 || got.AdmitStagger != 0 || got.RetireAfter != 0 {
		t.Errorf("admission churn survived the shrink: %+v", got)
	}
	if got.Duration != 120 {
		t.Errorf("Duration = %g, want the 120 s floor", got.Duration)
	}
	if calls > 120 {
		t.Errorf("shrink spent %d candidate runs, over the default budget", calls)
	}
	if !fails(got) {
		t.Error("Shrink returned a candidate that does not fail")
	}
}

// TestShrinkRespectsBudget: with a budget too small to make progress, Shrink
// must still return a failing candidate (the original).
func TestShrinkRespectsBudget(t *testing.T) {
	opts := Generate(9)
	alwaysTrue := func(fleet.ScenarioOptions) bool { return true }
	got := Shrink(opts, alwaysTrue, 1)
	if len(got.Faults) == 0 && len(opts.Faults) > 0 {
		// With one probe the first ddmin chunk may be removed; what must
		// never happen is returning a non-failing candidate.
		t.Log("single-probe shrink removed a chunk — acceptable")
	}
	if !alwaysTrue(got) {
		t.Error("Shrink returned a non-failing candidate")
	}
}

// TestFormatOptionsLiteral pins the reproducer's spelling on one hand-built
// scenario: non-zero fields appear under fleet-qualified types, kinds as the
// quoted constants a typed literal accepts, and zero fields are omitted.
func TestFormatOptionsLiteral(t *testing.T) {
	opts := fleet.ScenarioOptions{
		Apps: 2, Seed: 7, Duration: 240, CrushStart: -1, Adaptive: true,
		AppMix: []fleet.AppSpec{
			{Groups: 1, ServersPerGroup: 2, Clients: 2, ClientRate: 1,
				Arrivals: fleet.ArrivalSpec{Kind: fleet.ArrivalDiurnal, Base: 0.002, Swing: 0.4, Period: 120}},
		},
		Migration: fleet.MigrationPolicy{Enabled: true, Ranked: true, CheckPeriod: 10},
		OpenLoop: fleet.OpenLoopPolicy{Enabled: true, Users: 5000,
			Scale:     fleet.ScalePolicy{Enabled: true, MaxReplicas: 3},
			Admission: fleet.AdmissionPolicy{Enabled: true, Queue: true}},
		Faults: []fleet.Fault{
			{At: 50, Kind: fleet.FaultRegionFail, Router: 3, Duration: 60},
			{At: 80, Kind: fleet.FaultBackbonePartialRestore, Fraction: 0.5},
		},
	}
	got := fleet.FormatOptions(opts)
	for _, want := range []string{
		"Apps: 2", "Seed: 7", "Duration: 240", "CrushStart: -1", "Adaptive: true",
		"Migration: fleet.MigrationPolicy{Enabled: true, CheckPeriod: 10, Ranked: true}",
		"Arrivals: fleet.ArrivalSpec{Kind: \"diurnal\", Base: 0.002, Swing: 0.4, Period: 120}",
		"OpenLoop: fleet.OpenLoopPolicy{Enabled: true, Users: 5000, " +
			"Scale: fleet.ScalePolicy{Enabled: true, MaxReplicas: 3}, " +
			"Admission: fleet.AdmissionPolicy{Enabled: true, Queue: true}}",
		"{At: 50, Kind: \"region-fail\", Router: 3, Duration: 60}",
		"{At: 80, Kind: \"backbone-partial-restore\", Fraction: 0.5}",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("literal missing %q:\n%s", want, got)
		}
	}
	for _, absent := range []string{"Routers:", "AdmitStagger:", "App: 0", "LeaveBps:"} {
		if strings.Contains(got, absent) {
			t.Errorf("literal carries zero-valued field %q:\n%s", absent, got)
		}
	}
}

// TestFormatOptionsDistinguishesScenarios runs the reproducer printer over
// everything that is ever handed to it — the first 32 generated scenarios,
// pinned and with their migrate-mode policy, and every catalog entry: each
// literal parses as a Go expression, and two scenarios print the same text
// exactly when they are the same scenario, so nothing a run depends on is
// dropped on the way to the report.
func TestFormatOptionsDistinguishesScenarios(t *testing.T) {
	var all []fleet.ScenarioOptions
	for seed := uint64(0); seed < 32; seed++ {
		o := Generate(seed)
		all = append(all, o)
		o.Migration = MigratePolicy(seed)
		all = append(all, o)
	}
	for _, e := range fleet.Catalog() {
		all = append(all, e.Opts)
	}
	lits := make([]string, len(all))
	for i, o := range all {
		lits[i] = fleet.FormatOptions(o)
		if _, err := parser.ParseExpr(lits[i]); err != nil {
			t.Errorf("literal does not parse: %v\n%s", err, lits[i])
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if same := reflect.DeepEqual(all[i], all[j]); same != (lits[i] == lits[j]) {
				t.Errorf("scenarios %d and %d: DeepEqual = %v, but their literals say otherwise:\n%s\nvs\n%s",
					i, j, same, lits[i], lits[j])
			}
		}
	}
}
