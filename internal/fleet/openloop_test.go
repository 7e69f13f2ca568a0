package fleet

import (
	"math"
	"reflect"
	"testing"
)

// TestOpenLoopPolicyValidate covers the policy validation and defaulting
// rules: zero fills in, negatives reject.
func TestOpenLoopPolicyValidate(t *testing.T) {
	if err := (OpenLoopPolicy{}).validate(); err != nil {
		t.Fatalf("zero policy rejected: %v", err)
	}
	def := OpenLoopPolicy{Enabled: true}.withDefaults()
	if def.Scale.MaxReplicas != 8 {
		t.Fatalf("defaults wrong: %+v", def)
	}
	bad := []OpenLoopPolicy{
		{Users: -1},
		{Scale: ScalePolicy{MaxReplicas: -2}},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad policy %d (%+v) accepted", i, p)
		}
	}
}

// TestArrivalSpecProcess covers the declarative spec → process resolution,
// including the rejection paths.
func TestArrivalSpecProcess(t *testing.T) {
	if p, err := (ArrivalSpec{}).process(2.5); err != nil || p.Rate(0) != 2.5 {
		t.Fatalf("zero spec: %v, rate %v", err, p.Rate(0))
	}
	if p, err := (ArrivalSpec{Kind: ArrivalPoisson, Lambda: 4}).process(1); err != nil || p.Rate(99) != 4 {
		t.Fatalf("poisson spec: %v", err)
	}
	d, err := (ArrivalSpec{Kind: ArrivalDiurnal, Swing: 0.5, Period: 100,
		BurstAt: 10, BurstDuration: 5, BurstFactor: 3}).process(2)
	if err != nil {
		t.Fatal(err)
	}
	if in, out := d.Rate(12), d.Rate(50); in <= out*1.5 {
		t.Fatalf("burst window rate %v not well above post-burst rate %v", in, out)
	}
	if _, err := (ArrivalSpec{Kind: ArrivalTrace}).process(1); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := (ArrivalSpec{Kind: ArrivalTrace, Times: []float64{0, 1}, Rates: []float64{1}}).process(1); err == nil {
		t.Fatal("ragged trace accepted")
	}
	if _, err := (ArrivalSpec{Kind: "weibull"}).process(1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// dirtyDisabledOpenLoop is a valid policy with every knob set but Enabled
// false. Byte-identity-off must hold against this, not just the zero value:
// everything is gated on Enabled alone.
func dirtyDisabledOpenLoop() OpenLoopPolicy {
	return OpenLoopPolicy{
		Users:     424242,
		Scale:     ScalePolicy{Enabled: true, MaxReplicas: 3},
		Admission: AdmissionPolicy{Enabled: true, Queue: true},
	}
}

// TestOpenLoopOffIsByteIdentical is the purity contract, catalog-wide:
// every closed-loop entry must produce byte-identical summaries whether the
// open-loop policy is absent or fully specified but disabled. The
// open-loop entries themselves are checked for run-to-run determinism.
func TestOpenLoopOffIsByteIdentical(t *testing.T) {
	for _, e := range Catalog() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			base, err := RunScenario(e.Opts)
			if err != nil {
				t.Fatal(err)
			}
			other := e.Opts
			if !e.Opts.OpenLoop.Enabled {
				other.OpenLoop = dirtyDisabledOpenLoop()
			}
			again, err := RunScenario(other)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Summaries, again.Summaries) {
				t.Fatalf("summaries differ:\n%s\nvs\n%s", Table(base.Summaries), Table(again.Summaries))
			}
			if base.Table() != again.Table() {
				t.Fatal("summary tables differ")
			}
			if !e.Opts.OpenLoop.Enabled {
				if _, ok := again.Fleet.OpenLoopLedger(); ok {
					t.Fatal("disabled open-loop policy still attached an engine")
				}
			}
		})
	}
}

// openLoopSmallOpts is a small uncontended open-loop fixture: two default
// apps, constant Poisson arrivals at 4 req/s aggregate per app (0.42 of a
// group's service capacity), 10k modeled users.
func openLoopSmallOpts() ScenarioOptions {
	return ScenarioOptions{
		Apps: 2, Seed: 31, Duration: 600, Adaptive: true,
		CrushStart: -1,
		App:        AppSpec{Arrivals: ArrivalSpec{Lambda: 4e-4}},
		OpenLoop:   OpenLoopPolicy{Enabled: true, Users: 10_000},
	}
}

// TestOpenLoopConservation is the aggregated offered-load exactness check,
// end to end: in an uncontended run the delivered response count per app
// must track lambda * duration — the aggregation may not create or lose
// load beyond startup ramp and the in-flight tail.
func TestOpenLoopConservation(t *testing.T) {
	res, err := RunScenario(openLoopSmallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Fleet.AuditSlots(); err != nil {
		t.Fatal(err)
	}
	want := 4.0 * 600
	for _, s := range res.Summaries {
		got := float64(s.Responses)
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s delivered %v responses, want %v within 10%%", s.Name, got, want)
		}
		if s.PeakLatency <= 0 || s.PeakLatency > 2 {
			t.Errorf("%s peak latency %v outside (0, 2]: uncontended verdicts should be well under bound",
				s.Name, s.PeakLatency)
		}
		if s.FracAboveBound != 0 {
			t.Errorf("%s has %v of samples above bound in an uncontended run", s.Name, s.FracAboveBound)
		}
	}
}

// TestOpenLoopClosedLoopEquivalenceSmallN pins the regimes to each other at
// the population where they coincide: with Users defaulted to one per
// client at the closed-loop ClientRate, the open-loop run must land in the
// same ballpark as the closed-loop run — same apps, same order, response
// totals within 2x, and no latency violations on either side.
func TestOpenLoopClosedLoopEquivalenceSmallN(t *testing.T) {
	base := ScenarioOptions{
		Apps: 4, Seed: 37, Duration: 600, Adaptive: true,
		CrushStart: -1,
	}
	closed, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	open := base
	open.OpenLoop = OpenLoopPolicy{Enabled: true}
	openRes, err := RunScenario(open)
	if err != nil {
		t.Fatal(err)
	}
	if len(closed.Summaries) != len(openRes.Summaries) {
		t.Fatalf("app counts differ: %d vs %d", len(closed.Summaries), len(openRes.Summaries))
	}
	for i, cs := range closed.Summaries {
		os := openRes.Summaries[i]
		if cs.Name != os.Name {
			t.Fatalf("summary order differs: %s vs %s", cs.Name, os.Name)
		}
		if cs.Responses == 0 || os.Responses == 0 {
			t.Fatalf("%s: zero responses (closed %d, open %d)", cs.Name, cs.Responses, os.Responses)
		}
		ratio := float64(os.Responses) / float64(cs.Responses)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: open/closed response ratio %v outside [0.5, 2] (closed %d, open %d)",
				cs.Name, ratio, cs.Responses, os.Responses)
		}
		if cs.FracAboveBound > 0.05 || os.FracAboveBound > 0.05 {
			t.Errorf("%s: uncontended violations (closed %v, open %v)",
				cs.Name, cs.FracAboveBound, os.FracAboveBound)
		}
	}
}

// TestOpenLoopFlashCrowd runs the flash-crowd catalog entry and pins the
// autoscaler dynamics: replicas grow into the burst and drain back out.
func TestOpenLoopFlashCrowd(t *testing.T) {
	e, err := ScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(e.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Fleet.AuditSlots(); err != nil {
		t.Fatal(err)
	}
	tot := Aggregate(res.Summaries)
	if tot.ScaleUps == 0 || tot.ScaleDowns == 0 {
		t.Fatalf("flash crowd did not exercise the autoscaler: ups %d, downs %d", tot.ScaleUps, tot.ScaleDowns)
	}
	for _, s := range res.Summaries {
		if s.ScaleUps == 0 {
			t.Errorf("%s absorbed the burst without scaling up", s.Name)
		}
	}
	// Admission gating is off: the ledger exists but records nothing.
	led, ok := res.Fleet.OpenLoopLedger()
	if !ok {
		t.Fatal("open-loop fleet reports no ledger")
	}
	if led != (AdmissionLedger{}) {
		t.Fatalf("ungated run wrote the admission ledger: %+v", led)
	}
}

// TestOpenLoopOverloadShed runs the overload-shed catalog entry and audits
// the admission ledger: heavy candidates are shed at offer time and the
// books balance.
func TestOpenLoopOverloadShed(t *testing.T) {
	e, err := ScenarioByName("overload-shed")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(e.Opts)
	if err != nil {
		t.Fatal(err)
	}
	led, ok := res.Fleet.OpenLoopLedger()
	if !ok {
		t.Fatal("no admission ledger")
	}
	if led.Offered != 12 {
		t.Fatalf("offered %d, want 12", led.Offered)
	}
	if led.Queued != 0 {
		t.Fatalf("queued %d with queueing disabled", led.Queued)
	}
	if led.Shed < 2 {
		t.Fatalf("shed %d, want at least 2 heavy candidates rejected", led.Shed)
	}
	if led.Offered != led.Admitted+led.Shed+led.Queued {
		t.Fatalf("ledger unbalanced: %+v", led)
	}
	if led.Admitted != led.Active+led.Retired {
		t.Fatalf("admitted split unbalanced: %+v", led)
	}
	if got := len(res.Summaries); got != led.Admitted {
		t.Fatalf("%d summaries for %d admitted apps", got, led.Admitted)
	}
	if got := len(res.Fleet.Rejections()); got != led.Shed {
		t.Fatalf("%d rejections recorded for %d sheds", got, led.Shed)
	}
	if err := res.Fleet.AuditSlots(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopAdmissionQueue drives the queue-and-retry path: a candidate
// whose load would tip the fleet past the ceiling parks on the queue, and
// admits once a retirement frees capacity.
func TestOpenLoopAdmissionQueue(t *testing.T) {
	res, err := RunScenario(ScenarioOptions{
		Apps: 3, Seed: 41, Duration: 600, Adaptive: true,
		CrushStart: -1,
		AppMix: []AppSpec{
			{Groups: 2, ServersPerGroup: 2, Clients: 2, Arrivals: ArrivalSpec{Lambda: 8e-4}},
			{Groups: 2, ServersPerGroup: 2, Clients: 2, Arrivals: ArrivalSpec{Lambda: 2.66e-3}},
			{Groups: 2, ServersPerGroup: 2, Clients: 2, Arrivals: ArrivalSpec{Lambda: 2.66e-3}},
		},
		Faults: []Fault{{At: 100, Kind: FaultRetire, App: 1}},
		OpenLoop: OpenLoopPolicy{Enabled: true, Users: 10_000,
			Admission: AdmissionPolicy{Enabled: true, Queue: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	led, _ := res.Fleet.OpenLoopLedger()
	if led.Offered != 3 || led.Admitted != 3 || led.Shed != 0 || led.Queued != 0 {
		t.Fatalf("ledger: %+v, want all three offered apps eventually admitted", led)
	}
	if led.Active != 2 || led.Retired != 1 {
		t.Fatalf("lifecycle split: %+v, want 2 active / 1 retired", led)
	}
	late := res.Fleet.App(ScenarioAppName(2))
	if late == nil {
		t.Fatal("queued app never admitted")
	}
	if late.AdmittedAt < 100 {
		t.Fatalf("queued app admitted at %v, before the retirement at 100 freed capacity", late.AdmittedAt)
	}
	if err := res.Fleet.AuditSlots(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopAutoscaleRace runs the autoscale-race catalog entry: the
// autoscaler and the migration controller work the same apps, so replicas
// must round-trip through teardown at decision time without leaking slots.
func TestOpenLoopAutoscaleRace(t *testing.T) {
	e, err := ScenarioByName("autoscale-race")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(e.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Fleet.AuditSlots(); err != nil {
		t.Fatal(err)
	}
	tot := Aggregate(res.Summaries)
	if tot.ScaleUps == 0 {
		t.Fatal("no scale-ups: the race never started")
	}
	if tot.Migrations == 0 {
		t.Fatal("no migrations completed under region-collapse contention")
	}
	if rej := res.Fleet.Rejections(); len(rej) != 0 {
		t.Fatalf("rejections: %+v", rej)
	}
}

// TestOpenLoopTickAllocationFree holds a steady open-loop period at zero
// allocations: the tick itself (classes standing at an unchanged membership
// revision, per-group state in slices, verdicts delivered to member
// handles) and everything it sets off before the next one — probe
// messages, gauge reports, bandwidth queries and the repair loop's declined
// checks. The fixture is uncontended, so nothing repairs, scales or
// migrates while it is measured.
func TestOpenLoopTickAllocationFree(t *testing.T) {
	run, err := StartScenario(openLoopSmallOpts())
	if err != nil {
		t.Fatal(err)
	}
	run.K.Run(300) // past the Remos cold collections: classes built, flows started
	a := run.Fleet.App(ScenarioAppName(0))
	rev, ups, downs, asg := a.Sys.MemberRev(), a.ol.ups, a.ol.downs, a.Assign
	responses := a.Sys.Client(a.Sys.Clients()[0]).Responses()
	period := func() { run.K.Run(run.K.Now() + adjustPeriod) }
	if avg := testing.AllocsPerRun(40, period); avg != 0 {
		t.Fatalf("%v allocations per steady open-loop period, want 0", avg)
	}
	if a.Sys.MemberRev() != rev || a.ol.ups != ups || a.ol.downs != downs || a.Assign != asg {
		t.Fatal("the fixture repaired, scaled or migrated while measured: not a steady tick")
	}
	if a.Sys.Client(a.Sys.Clients()[0]).Responses() == responses {
		t.Fatal("no responses delivered while measured: the engine did not tick")
	}
}
