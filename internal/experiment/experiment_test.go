package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"archadapt/internal/core"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/repair"
	"archadapt/internal/workload"
)

// The integration tests run the full 30-minute experiment (a fraction of a
// second of wall time) and assert the paper's qualitative claims;
// golden_test.go pins its numbers.

// seedRuns holds the default-option runs, made once per test binary and
// shared by every test that reads them (none writes to a Results).
var seedRuns = map[Options]*Results{}

// seedRun is the run with default options at a seed.
func seedRun(adaptive bool, seed uint64) *Results {
	opts := Options{Adaptive: adaptive, Seed: seed}
	if r, ok := seedRuns[opts]; ok {
		return r
	}
	r := Run(opts)
	seedRuns[opts] = r
	return r
}

func controlRun(t *testing.T) *Results {
	t.Helper()
	return seedRun(false, 1)
}

func adaptiveRun(t *testing.T) *Results {
	t.Helper()
	return seedRun(true, 1)
}

// claimSeeds is how many seeds, from 0, the paper's claims are checked at.
// The tests log (-v) each checked quantity's minimum and maximum over them,
// the ranges EXPERIMENTS.md records.
const claimSeeds = 32

// seedRanges is the per-seed minimum and maximum of named quantities.
type seedRanges struct {
	names  []string
	lo, hi map[string]float64
}

func (r *seedRanges) add(name string, v float64) {
	if r.lo == nil {
		r.lo, r.hi = map[string]float64{}, map[string]float64{}
	}
	if _, ok := r.lo[name]; !ok {
		r.names = append(r.names, name)
		r.lo[name], r.hi[name] = v, v
	}
	r.lo[name], r.hi[name] = min(r.lo[name], v), max(r.hi[name], v)
}

func (r *seedRanges) log(t *testing.T) {
	for _, n := range r.names {
		t.Logf("seeds 0-%d: %-28s min %.4g max %.4g", claimSeeds-1, n, r.lo[n], r.hi[n])
	}
}

func TestTestbedTopology(t *testing.T) {
	tb := NewTestbed(1)
	if got := tb.Net.NumNodes(); got != 16 { // 5 routers + 11 host machines
		t.Fatalf("nodes=%d, want 16", got)
	}
	// C3 reaches SG1 servers over the contested R2-R3 link (3 hops) and SG2
	// over R3-R4 (3 hops); C1 reaches SG1 without touching either.
	if h := tb.Net.PathHops(tb.Hosts["mC3"], tb.Hosts["mS1"]); h != 3 {
		t.Fatalf("C3->S1 hops=%d", h)
	}
	if h := tb.Net.PathHops(tb.Hosts["mC3"], tb.Hosts["mS5RQ"]); h != 3 {
		t.Fatalf("C3->S5 hops=%d", h)
	}
	if h := tb.Net.PathHops(tb.Hosts["mC12"], tb.Hosts["mS1"]); h != 3 {
		t.Fatalf("C1->S1 hops=%d", h)
	}
	// Crushing the contested link must not affect C1's path to SG1.
	tb.Net.SetBackgroundBoth(tb.Links.SG1Path, workload.LinkCapacity)
	if bw := tb.Net.AvailBandwidth(tb.Hosts["mS1"], tb.Hosts["mC12"]); bw < 9e6 {
		t.Fatalf("C1 path degraded by C3's competition: %v", bw)
	}
	if bw := tb.Net.AvailBandwidth(tb.Hosts["mS1"], tb.Hosts["mC3"]); bw > 1e5 {
		t.Fatalf("C3 path should be crushed: %v", bw)
	}
	// Initial deployment: 3+2 active servers, both spares idle.
	if got := tb.App.ActiveServersOf(SG1); len(got) != 3 {
		t.Fatalf("SG1 active=%v", got)
	}
	if got := tb.App.ActiveServersOf(SG2); len(got) != 2 {
		t.Fatalf("SG2 active=%v", got)
	}
	if tb.App.Server("S4").Active() || tb.App.Server("S7").Active() {
		t.Fatal("spares must start inactive")
	}
}

func TestControlNeverRecovers(t *testing.T) {
	var r seedRanges
	for seed := uint64(0); seed < claimSeeds; seed++ {
		s := seedRun(false, seed).Summarize()
		r.add("first violation (s)", s.FirstViolationAt)
		r.add("fraction above 2 s", s.FracAbove2s)
		r.add("repairs", float64(s.Repairs))
		r.add("max queue", s.MaxQueue)
		r.add("min bandwidth (Mbps)", s.MinBandwidthMbps)
		// Paper: "Once the latency rises to above two seconds (at
		// approximately 140 seconds for each client), it never falls below
		// this required threshold."
		if s.FirstViolationAt < 100 || s.FirstViolationAt > 200 {
			t.Errorf("seed %d: first violation at %v, want ~120-160 s", seed, s.FirstViolationAt)
		}
		if s.FracAbove2s < 0.9 {
			t.Errorf("seed %d: control should stay above 2 s almost always, got %.2f", seed, s.FracAbove2s)
		}
		if s.Repairs != 0 {
			t.Errorf("seed %d: control must not repair, got %d", seed, s.Repairs)
		}
		// Queue explodes (paper Figure 9 reaches thousands).
		if s.MaxQueue < 1000 {
			t.Errorf("seed %d: control queue should explode, max=%v", seed, s.MaxQueue)
		}
		// Available bandwidth collapses (paper Figure 10 bottoms near
		// 1e-4..1e-2 Mbps).
		if s.MinBandwidthMbps > 0.01 {
			t.Errorf("seed %d: control min bandwidth %v Mbps, want < 0.01", seed, s.MinBandwidthMbps)
		}
	}
	r.log(t)
}

func TestAdaptiveMaintainsConstraint(t *testing.T) {
	var r seedRanges
	for seed := uint64(0); seed < claimSeeds; seed++ {
		res := seedRun(true, seed)
		s := res.Summarize()
		r.add("fraction above 2 s", s.FracAbove2s)
		r.add("final-phase fraction", s.FinalPhaseFracAbove2s)
		r.add("repairs", float64(s.Repairs))
		r.add("mean repair (s)", s.MeanRepairSeconds)
		r.add("moves", float64(s.Moves))
		// Paper: "the latency experienced by clients was less than two
		// seconds for most of the time."
		if s.FracAbove2s > 0.35 {
			t.Errorf("seed %d: adaptive above-2s fraction %.2f, want < 0.35", seed, s.FracAbove2s)
		}
		// Full recovery by the final phase.
		if s.FinalPhaseFracAbove2s > 0.05 {
			t.Errorf("seed %d: adaptive final phase above-2s %.2f, want ~0", seed, s.FinalPhaseFracAbove2s)
		}
		if s.Repairs == 0 {
			t.Errorf("seed %d: adaptive run performed no repairs", seed)
		}
		// Paper: repairs "averages 30 seconds".
		if s.MeanRepairSeconds < 5 || s.MeanRepairSeconds > 90 {
			t.Errorf("seed %d: mean repair %v s, want ~30", seed, s.MeanRepairSeconds)
		}
		// Both spares recruited ("we were able to recruit only two extra
		// servers", activated mid-run).
		for _, spare := range []string{"S4", "S7"} {
			if _, ok := s.ServerActivations[spare]; !ok {
				t.Errorf("seed %d: %s never activated", seed, spare)
			}
		}
		// The bandwidth repair moved the starved clients to ServerGrp2.
		if res.ClientGroups["C3"] != SG2 || res.ClientGroups["C4"] != SG2 {
			t.Errorf("seed %d: C3/C4 should end on SG2: %v", seed, res.ClientGroups)
		}
		if s.Moves < 2 {
			t.Errorf("seed %d: moves=%d, want >= 2", seed, s.Moves)
		}
	}
	r.log(t)
}

func TestAdaptiveBeatsControl(t *testing.T) {
	var r seedRanges
	for seed := uint64(0); seed < claimSeeds; seed++ {
		ctrl := seedRun(false, seed).Summarize()
		adpt := seedRun(true, seed).Summarize()
		r.add("above-2 s fraction ratio", adpt.FracAbove2s/ctrl.FracAbove2s)
		r.add("max queue ratio", adpt.MaxQueue/ctrl.MaxQueue)
		if adpt.FracAbove2s >= ctrl.FracAbove2s/2 {
			t.Errorf("seed %d: adaptive (%.2f) should at least halve control's violation fraction (%.2f)",
				seed, adpt.FracAbove2s, ctrl.FracAbove2s)
		}
		if adpt.MaxQueue >= ctrl.MaxQueue/2 {
			t.Errorf("seed %d: adaptive max queue %v vs control %v", seed, adpt.MaxQueue, ctrl.MaxQueue)
		}
	}
	r.log(t)
}

func TestMatchedSeeding(t *testing.T) {
	// Paper §5.1 control-variable trick: same seed ⇒ identical request
	// sequences. Two control runs must match exactly; and the adaptive run
	// must differ from control only because of repairs.
	a := Run(Options{Adaptive: false, Seed: 7, Duration: 400})
	b := Run(Options{Adaptive: false, Seed: 7, Duration: 400})
	for _, c := range a.Clients {
		if a.Responses[c] != b.Responses[c] {
			t.Fatalf("same-seed runs diverged for %s: %d vs %d", c, a.Responses[c], b.Responses[c])
		}
		sa, sb := a.Latency[c], b.Latency[c]
		if sa.Len() != sb.Len() {
			t.Fatalf("series length differs for %s", c)
		}
		for i := 0; i < sa.Len(); i++ {
			ta, va := sa.At(i)
			tb2, vb := sb.At(i)
			if ta != tb2 || va != vb {
				t.Fatalf("series differ for %s at %d", c, i)
			}
		}
	}
}

func TestGaugeCachingAblation(t *testing.T) {
	// §5.3: "caching gauges or relocating them ... should see our repair
	// speed improve dramatically."
	slow := adaptiveRun(t)
	fast := Run(Options{Adaptive: true, Seed: 1, Cfg: core.Config{GaugeCaching: true}})
	ss, fs := slow.Summarize(), fast.Summarize()
	if fs.Repairs == 0 || ss.Repairs == 0 {
		t.Fatalf("both runs should repair: %d vs %d", ss.Repairs, fs.Repairs)
	}
	if fs.MeanRepairSeconds >= ss.MeanRepairSeconds/2 {
		t.Fatalf("caching should cut repair time dramatically: %.1f vs %.1f",
			fs.MeanRepairSeconds, ss.MeanRepairSeconds)
	}
}

func TestMonitoringQoSAblation(t *testing.T) {
	// §5.3: prioritizing monitoring traffic removes the detection lag when
	// the shared network is congested. With QoS the first repair lands no
	// later than without it.
	be := adaptiveRun(t)
	qos := Run(Options{Adaptive: true, Seed: 1,
		Cfg: core.Config{MonitoringPriority: netsim.Prioritized}})
	if len(be.Spans) == 0 || len(qos.Spans) == 0 {
		t.Fatal("both runs should repair")
	}
	if qos.Spans[0].Start > be.Spans[0].Start+10 {
		t.Fatalf("QoS first repair at %.0f, best-effort at %.0f — QoS should not be slower",
			qos.Spans[0].Start, be.Spans[0].Start)
	}
	qs := qos.Summarize()
	if qs.FracAbove2s > be.Summarize().FracAbove2s+0.05 {
		t.Fatalf("QoS run should not be worse overall")
	}
}

func TestRemosPrequeryAblation(t *testing.T) {
	// §5.3: without pre-querying, the first bandwidth queries take minutes,
	// delaying the move repairs.
	warm := adaptiveRun(t)
	cold := Run(Options{Adaptive: true, Seed: 1, Cfg: core.Config{SkipRemosPrequery: true}})
	firstMove := func(r *Results) float64 {
		for _, sp := range r.Spans {
			for _, op := range sp.Ops {
				if op.Kind == repair.OpMoveClient {
					return sp.Start
				}
			}
		}
		return -1
	}
	wm, cm := firstMove(warm), firstMove(cold)
	if wm < 0 {
		t.Fatal("warm run never moved a client")
	}
	if cm >= 0 && cm < wm {
		t.Fatalf("cold Remos moved earlier (%v) than warm (%v)?", cm, wm)
	}
}

func TestSettlingReducesRepairChurn(t *testing.T) {
	// §5.3 extension: with settle time, fewer repair attempts/alerts fire
	// while a repair's effect is still landing.
	raw := adaptiveRun(t)
	settled := Run(Options{Adaptive: true, Seed: 1, Cfg: core.Config{SettleTime: 60}})
	rs, ss := raw.Summarize(), settled.Summarize()
	if ss.Alerts > rs.Alerts {
		t.Fatalf("settling should not increase alerts: %d vs %d", ss.Alerts, rs.Alerts)
	}
	if ss.FracAbove2s > rs.FracAbove2s+0.15 {
		t.Fatalf("settling should not substantially hurt latency: %.2f vs %.2f",
			ss.FracAbove2s, rs.FracAbove2s)
	}
}

func TestFigureRendering(t *testing.T) {
	res := adaptiveRun(t)
	for _, f := range []Figure{Figure7, Figure11, Figure12, Figure13} {
		out := RenderFigure(f, res)
		if !strings.Contains(out, "Figure") {
			t.Fatalf("figure %d render missing title:\n%s", f, out)
		}
		if f != Figure7 && !strings.Contains(out, "repair intervals") {
			t.Fatalf("figure %d should list repair intervals", f)
		}
	}
	ctrl := controlRun(t)
	for _, f := range []Figure{Figure8, Figure9, Figure10} {
		out := RenderFigure(f, ctrl)
		if len(out) < 100 {
			t.Fatalf("figure %d render too small", f)
		}
	}
	if csv := CSVFor(Figure8, ctrl); !strings.Contains(csv, "latency:C1") {
		t.Fatal("CSV missing series header")
	}
	if cmp := CompareRuns(ctrl, res); !strings.Contains(cmp, "control") || !strings.Contains(cmp, "adaptive") {
		t.Fatal("comparison table malformed")
	}
}

func TestOscillationDampingAblation(t *testing.T) {
	// Alternating competition makes clients ping-pong; damping cuts the
	// number of moves without losing the latency win.
	wild := Run(Options{Adaptive: true, Seed: 1, Oscillate: true})
	damped := Run(Options{Adaptive: true, Seed: 1, Oscillate: true,
		Cfg: core.Config{SettleTime: 20, OscillationWindow: 300, OscillationMoves: 3, DampFactor: 6}})
	wm, dm := wild.Summarize().Moves, damped.Summarize().Moves
	if wm == 0 {
		t.Skip("oscillation scenario produced no moves at this seed")
	}
	if dm > wm {
		t.Fatalf("damping should not increase moves: %d vs %d", dm, wm)
	}
}

func TestScriptedRepairsMatchHandCoded(t *testing.T) {
	// The managers run the hand-coded Figure 5 tactics. Rebinding the
	// compiled script in their place must reproduce the run exactly: the
	// summary, alerts included, every alert and every repair span.
	compiled := func(m *core.Manager) {
		strat, err := operators.CompileFixLatency(m.FindGoodSGrp)
		if err != nil {
			t.Fatal(err)
		}
		m.Engine.Bind(operators.InvLatency, strat)
	}
	for seed := uint64(0); seed < claimSeeds; seed++ {
		hand := seedRun(true, seed)
		scripted := run(Options{Adaptive: true, Seed: seed}, compiled)
		if s, h := scripted.Summarize().String(), hand.Summarize().String(); s != h {
			t.Errorf("seed %d: scripted summary\n%s\nhand-coded\n%s", seed, s, h)
		}
		if s, h := fmt.Sprint(scripted.Spans), fmt.Sprint(hand.Spans); s != h {
			t.Errorf("seed %d: scripted spans\n%s\nhand-coded\n%s", seed, s, h)
		}
		if !reflect.DeepEqual(scripted.Alerts, hand.Alerts) {
			t.Errorf("seed %d: alerts differ: %d scripted, %d hand-coded", seed, len(scripted.Alerts), len(hand.Alerts))
		}
	}
}
