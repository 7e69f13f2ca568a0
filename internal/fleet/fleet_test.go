package fleet

import (
	"math"
	"strings"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// live counts the applications still running.
func live(f *Fleet) int {
	n := 0
	for _, name := range f.Apps() {
		if f.App(name).Live() {
			n++
		}
	}
	return n
}

// TestFleetAdmissionRetirement exercises the control-plane lifecycle:
// admission at t=0, mid-run admission, retirement releasing slots, and the
// retired application going quiet while the rest keep serving.
func TestFleetAdmissionRetirement(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 9, HostsPerRouter: 3, Seed: 3})
	f, err := New(k, grid, 3, Config{HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := AppSpec{Groups: 2, ServersPerGroup: 2, Clients: 2}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		s := spec
		s.Name = name
		if _, err := f.Admit(s); err != nil {
			t.Fatalf("admitting %s: %v", name, err)
		}
	}
	if got := live(f); got != 3 {
		t.Fatalf("live = %d, want 3", got)
	}
	// 27 hosts, 1 reserved for Remos, 3 apps x 8 slots = 25 used: delta full.
	s := spec
	s.Name = "delta"
	if _, err := f.Admit(s); err == nil {
		t.Fatal("expected delta to be rejected on a full grid")
	}
	if len(f.Rejections()) != 1 || f.Rejections()[0].Name != "delta" {
		t.Fatalf("rejections = %+v, want one for delta", f.Rejections())
	}

	// Retire beta mid-run; its freed slots admit epsilon.
	var betaAtRetire, epsilonAdmitted uint64
	k.At(200, func() {
		if err := f.Retire("beta"); err != nil {
			t.Errorf("retiring beta: %v", err)
		}
		betaAtRetire = f.App("beta").Sys.Client("C1").Responses()
		s := spec
		s.Name = "epsilon"
		if _, err := f.Admit(s); err != nil {
			t.Errorf("admitting epsilon after retirement: %v", err)
		} else {
			epsilonAdmitted = 1
		}
	})
	k.Run(500)
	f.Stop()
	k.Run(620)

	if epsilonAdmitted != 1 {
		t.Fatal("epsilon was not admitted after beta's retirement")
	}
	if got := live(f); got != 3 {
		t.Fatalf("live after retirement+admission = %d, want 3", got)
	}
	beta := f.App("beta")
	if beta.RetiredAt != 200 {
		t.Fatalf("beta.RetiredAt = %v, want 200", beta.RetiredAt)
	}
	// A retired app generates no new requests; allow the few in flight at
	// retirement to drain.
	if got := beta.Sys.Client("C1").Responses(); got > betaAtRetire+5 {
		t.Fatalf("beta kept serving after retirement: %d -> %d", betaAtRetire, got)
	}
	for _, name := range []string{"alpha", "gamma", "epsilon"} {
		if got := f.App(name).Sys.Client("C1").Responses(); got == 0 {
			t.Fatalf("%s served no responses", name)
		}
	}
	sums := f.Summaries()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d, want 4", len(sums))
	}
	if epsilon := sums[3]; epsilon.AdmittedAt != 200 {
		t.Fatalf("epsilon.AdmittedAt = %v, want 200", epsilon.AdmittedAt)
	}
}

// TestRetiredAppTallyStops: the sampler skips retired applications, so a
// retired app's ground truth stays as it was at Retire — its clients' windows
// would otherwise go on reporting for a while after they stop — while the
// live app keeps being sampled.
func TestRetiredAppTallyStops(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: 1})
	f, err := New(k, grid, 1, Config{HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := AppSpec{Groups: 1, ServersPerGroup: 2, Clients: 2}
	for _, name := range []string{"kept", "gone"} {
		s := spec
		s.Name = name
		if _, err := f.Admit(s); err != nil {
			t.Fatalf("admitting %s: %v", name, err)
		}
	}
	kept, gone := f.App("kept"), f.App("gone")
	var atRetire AppSummary
	var goneSamples, keptSamples int
	k.At(200, func() {
		if err := f.Retire("gone"); err != nil {
			t.Errorf("retiring gone: %v", err)
		}
		atRetire, goneSamples, keptSamples = gone.Summarize(), gone.samples, kept.samples
	})
	k.Run(500)
	f.Stop()
	k.Run(620)

	if goneSamples == 0 || keptSamples == 0 {
		t.Fatalf("samples at Retire: gone %d, kept %d; want both > 0", goneSamples, keptSamples)
	}
	if gone.samples != goneSamples {
		t.Errorf("retired app's sample count moved after Retire: %d -> %d", goneSamples, gone.samples)
	}
	got := gone.Summarize()
	if got.FracAboveBound != atRetire.FracAboveBound || got.PeakLatency != atRetire.PeakLatency {
		t.Errorf("retired app's summary moved after Retire: >bound %v -> %v, peak %v -> %v",
			atRetire.FracAboveBound, got.FracAboveBound, atRetire.PeakLatency, got.PeakLatency)
	}
	if kept.samples <= keptSamples {
		t.Errorf("live app stopped being sampled: %d samples at 200, %d at the end", keptSamples, kept.samples)
	}
}

// TestAdmitRejectsNonFiniteTraffic: a NaN or infinite client rate or reply
// size is an error from Admit, not a kernel panic or a run that never ends,
// and the placement it had taken goes back to the scheduler.
func TestAdmitRejectsNonFiniteTraffic(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 4, HostsPerRouter: 3, Seed: 3})
	f, err := New(k, grid, 3, Config{HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []AppSpec{
		{Name: "nan-rate", ClientRate: math.NaN()},
		{Name: "inf-rate", ClientRate: math.Inf(1)},
		{Name: "nan-resp", RespBits: math.NaN()},
	} {
		if _, err := f.Admit(spec); err == nil || !strings.HasPrefix(err.Error(), "operators: ") {
			t.Errorf("%s: err %v, want an operators: error", spec.Name, err)
		}
		if err := f.AuditSlots(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
	if len(f.Apps()) != 0 {
		t.Fatalf("apps = %v, want none", f.Apps())
	}
	if _, err := f.Admit(AppSpec{Name: "ok"}); err != nil {
		t.Fatalf("a valid spec after the rejections: %v", err)
	}
	k.Run(100)
	if got := f.App("ok").Sys.Client("C1").Responses(); got == 0 {
		t.Fatal("the valid application served no responses")
	}
}

// TestFleetScenarioDeterministic asserts the acceptance criterion: two runs
// with the same seed produce identical per-app summaries.
func TestFleetScenarioDeterministic(t *testing.T) {
	opts := ScenarioOptions{
		Apps: 8, Seed: 11, Duration: 450, Adaptive: true,
		CrushStart: 120, CrushStagger: 5, CrushDuration: 180,
	}
	r1, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if t1, t2 := r1.Table(), r2.Table(); t1 != t2 {
		t.Fatalf("summaries differ between identical runs:\n--- run 1\n%s--- run 2\n%s", t1, t2)
	}
}

// TestFleetRepairsEachAppIndependently is the end-to-end acceptance test: a
// fleet of 8 applications under staggered Figure 7-style contention, where
// each application's manager must detect and repair its own latency
// violation (by moving its clients to the healthy group) without help from —
// or interference with — the others.
func TestFleetRepairsEachAppIndependently(t *testing.T) {
	opts := ScenarioOptions{
		Apps: 8, Seed: 5, Duration: 600, Adaptive: true,
		CrushStart: 120, CrushStagger: 10, CrushDuration: 300,
	}
	res, err := RunScenario(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 8 {
		t.Fatalf("admitted %d apps, want 8 (rejections: %v)", len(res.Summaries), res.Fleet.Rejections())
	}
	for _, s := range res.Summaries {
		if s.Repairs == 0 {
			t.Errorf("%s: no repairs fired", s.Name)
		}
		if s.Moves == 0 {
			t.Errorf("%s: no client moves (bandwidth tactic never committed)", s.Name)
		}
		if s.Responses == 0 {
			t.Errorf("%s: no responses", s.Name)
		}
		// The repair must actually have moved the clients off the crushed
		// primary group.
		a := res.Fleet.App(s.Name)
		for _, c := range a.Opspec.Clients {
			if grp := a.Sys.Client(c.Name).Group; grp == "SG1" {
				t.Errorf("%s: client %s still on crushed SG1", s.Name, c.Name)
			}
		}
	}

	// Control comparison: without repairs the same contention leaves every
	// app violating its bound far more of the time.
	ctl, err := RunScenario(ScenarioOptions{
		Apps: 8, Seed: 5, Duration: 600, Adaptive: false,
		CrushStart: 120, CrushStagger: 10, CrushDuration: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ctl.Summaries {
		a := res.Summaries[i]
		if a.FracAboveBound >= c.FracAboveBound {
			t.Errorf("%s: adaptive >bound %.1f%% not better than control %.1f%%",
				a.Name, 100*a.FracAboveBound, 100*c.FracAboveBound)
		}
	}
}

// TestFleetCrushIsTargeted verifies the independence premise of the e2e
// test: crushing one application's primary paths leaves other applications'
// latency within bound (each process has its own host at capacity 1).
func TestFleetCrushIsTargeted(t *testing.T) {
	res, err := RunScenario(ScenarioOptions{
		Apps: 4, Seed: 9, Duration: 400, Adaptive: false,
		CrushStart: 120, CrushStagger: 1e9, // only app00 is ever crushed
		CrushDuration: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if crushed := res.Summaries[0]; crushed.FracAboveBound == 0 {
		t.Error("app00 never violated its bound despite contention")
	}
	for _, s := range res.Summaries[1:] {
		if s.FracAboveBound > 0.02 {
			t.Errorf("%s: violated bound %.1f%% of samples while only app00 was crushed",
				s.Name, 100*s.FracAboveBound)
		}
	}
}

// TestFleetNewOnAdvancedKernel: the control plane must stand up on a kernel
// whose clock is already past the sample period (e.g. after a warm-up
// phase) without scheduling in the past.
func TestFleetNewOnAdvancedKernel(t *testing.T) {
	k := sim.NewKernel()
	k.Run(50) // advance the clock with an empty queue
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: 1})
	f, err := New(k, grid, 1, Config{HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.Admit(AppSpec{Name: "late"})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(200)
	f.Stop()
	k.Run(320)
	if a.AdmittedAt != 50 {
		t.Fatalf("AdmittedAt = %v, want 50", a.AdmittedAt)
	}
	if a.samples == 0 {
		t.Fatal("sampler recorded nothing on an advanced kernel")
	}
}

// TestCrushSharedLinkRefcount: when two applications' crushed server hosts
// share an access link, restoring one application must not lift the other's
// still-active contention.
func TestCrushSharedLinkRefcount(t *testing.T) {
	k := sim.NewKernel()
	// One router, two hosts, generous capacity: apps are forced to share.
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 1, HostsPerRouter: 2, Seed: 1})
	f, err := New(k, grid, 1, Config{HostCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	spec := AppSpec{Groups: 1, ServersPerGroup: 1, Clients: 1}
	for _, name := range []string{"a", "b"} {
		s := spec
		s.Name = name
		if _, err := f.Admit(s); err != nil {
			t.Fatal(err)
		}
	}
	linkA := f.Grid.AccessLink(f.App("a").Assign.ServerHosts["S1_1"])
	linkB := f.Grid.AccessLink(f.App("b").Assign.ServerHosts["S1_1"])
	if linkA != linkB {
		t.Skip("placement did not co-locate the two apps' servers")
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.CrushPrimary("a"))
	must(f.CrushPrimary("b"))
	f.RestorePrimary("a")
	if got := f.Net.Background(linkA, netsim.Fwd); got == 0 {
		t.Fatal("restoring app a lifted app b's still-active contention")
	}
	f.RestorePrimary("b")
	if got := f.Net.Background(linkA, netsim.Fwd); got != 0 {
		t.Fatalf("background = %v after both restores, want 0", got)
	}
}

// TestFleetSpareRecruitment checks the other Figure 5 tactic at fleet scale:
// with spares available and load-driven contention, managers activate spare
// servers.
func TestFleetSpareRecruitment(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: 2})
	f, err := New(k, grid, 2, Config{Adaptive: true, HostCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One group only: moves are impossible, so the load tactic must fire.
	a, err := f.Admit(AppSpec{
		Name: "hot", Groups: 1, ServersPerGroup: 1, SparesPerGroup: 2, Clients: 2,
		ClientRate: 4, RespBits: 20 * 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(500)
	f.Stop()
	k.Run(620)
	added := 0
	for _, sp := range a.Mgr.Spans() {
		for _, op := range sp.Ops {
			if op.Kind == repair.OpAddServer {
				added++
			}
		}
	}
	if added == 0 {
		t.Fatalf("no spare recruited; spans=%v alerts=%v", a.Mgr.Spans(), a.Mgr.Alerts())
	}
	if got := len(a.Sys.ActiveServersOf("SG1")); got < 2 {
		t.Fatalf("active servers = %d, want >=2 after recruitment", got)
	}
}

// TestRouteStatsFlatInFleetSize pins the routing slice of the work ledger:
// admission's searches stop at the relays its lookups ask for, so the relays
// they dequeue per app stay flat in fleet size; admission measures a route
// only for the hosts whose end links leave them in contention for a server
// slot (Scheduler.pick), not for every host on the grid; and only the pairs
// an application sends traffic between or measures get a memoised path —
// all per-app constants, not functions of how many other hosts the grid
// has. Counters are exact under a seed, so the per-app figures at 64 and
// 256 apps are compared with 16 directly, and the whole-run counts are
// pinned: measurement walks and memoised paths exactly, relay visits as a
// ceiling (one whole search per router, which stopping early may only
// undercut).
func TestRouteStatsFlatInFleetSize(t *testing.T) {
	type pin struct{ walks, paths, visits uint64 }
	pins := map[int]pin{
		16:  {walks: 2296, paths: 464, visits: 1089},
		64:  {walks: 9184, paths: 1856, visits: 16641},
		256: {walks: 37099, paths: 7070, visits: 263169},
	}
	sizes := []int{16, 64}
	if !testing.Short() {
		sizes = append(sizes, 256)
	}
	perApp, walksPerApp, setupPerApp := map[int]float64{}, map[int]float64{}, map[int]float64{}
	for _, apps := range sizes {
		run, err := StartScenario(ScenarioOptions{
			Apps: apps, Seed: 1, Duration: 300, Adaptive: true,
			CrushStart: 120, CrushStagger: 2, CrushDuration: 120,
		})
		if err != nil {
			t.Fatal(err)
		}
		setup := run.Grid.Net.RouteStats()
		setupPerApp[apps] = float64(setup.RelayVisits) / float64(apps)
		res := run.Finish()
		st := res.Grid.Net.RouteStats()
		t.Logf("N=%d: %+v; set-up relay visits/app %.1f, paths/app %.2f after set-up and %.2f after the run",
			apps, st, setupPerApp[apps], float64(setup.PathsMaterialised)/float64(apps), float64(st.PathsMaterialised)/float64(apps))
		if st.Walks == 0 || st.RelayVisits == 0 {
			t.Errorf("N=%d: counters not running: %+v", apps, st)
		}
		want := pins[apps]
		if st.Walks != want.walks || st.PathsMaterialised != want.paths {
			t.Errorf("N=%d: %d walks and %d paths materialised, want exactly %d and %d",
				apps, st.Walks, st.PathsMaterialised, want.walks, want.paths)
		}
		if st.RelayVisits > want.visits {
			t.Errorf("N=%d: %d relay visits over the run, above the full-tree ceiling %d", apps, st.RelayVisits, want.visits)
		}
		perApp[apps] = float64(st.PathsMaterialised) / float64(apps)
		walksPerApp[apps] = float64(st.Walks) / float64(apps)
	}
	for _, apps := range sizes[1:] {
		if setupPerApp[apps] > setupPerApp[16]*1.25 {
			t.Errorf("admission's relay visits per app grow with fleet size: %.1f at N=16, %.1f at N=%d", setupPerApp[16], setupPerApp[apps], apps)
		}
		if perApp[16] == 0 || perApp[apps] > perApp[16]*1.05 {
			t.Errorf("paths memoised per app grow with fleet size: %.1f at N=16, %.1f at N=%d", perApp[16], perApp[apps], apps)
		}
	}
	if walksPerApp[64] > walksPerApp[16]*1.25 {
		t.Errorf("route walks per app grow with fleet size: %.1f at N=16, %.1f at N=64", walksPerApp[16], walksPerApp[64])
	}
}

// TestRetiredAppHoldsNoFreeRequests: an application's request free list dies
// with its sending life. A crush builds a backlog whose replies land after
// retirement; none of those records — nor the ones pooled while the app ran —
// may stay on the retired System (retained per retired app, they show up as
// live heap on churning fleets).
func TestRetiredAppHoldsNoFreeRequests(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 6, HostsPerRouter: 3, Seed: 4})
	f, err := New(k, grid, 4, Config{HostCapacity: 1}) // control run: the backlog is left to build
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x", "y"} {
		if _, err := f.Admit(AppSpec{Name: name, Groups: 1, ServersPerGroup: 2, Clients: 3}); err != nil {
			t.Fatal(err)
		}
	}
	x, y := f.App("x").Sys, f.App("y").Sys
	var pooledBefore, backlog int
	var answeredAtRetire uint64
	answered := func() (n uint64) {
		for _, c := range x.Clients() {
			n += x.Client(c).Responses()
		}
		return n
	}
	k.At(100, func() {
		pooledBefore = x.PooledRequests()
		if err := f.CrushPrimary("x"); err != nil {
			t.Error(err)
		}
	})
	k.At(220, func() {
		backlog = f.App("x").obs.Outstanding()
		answeredAtRetire = answered()
		if err := f.Retire("x"); err != nil {
			t.Error(err)
		}
		if n := x.PooledRequests(); n != 0 {
			t.Errorf("retirement left %d free requests on the system", n)
		}
	})
	k.Run(400)
	f.Stop()
	k.Run(520)

	if pooledBefore == 0 {
		t.Fatal("live app pooled no request records: the test would prove nothing")
	}
	if backlog == 0 || answered() == answeredAtRetire {
		t.Fatalf("no backlog drained after retirement (outstanding %d, answered %d -> %d)",
			backlog, answeredAtRetire, answered())
	}
	if n := x.PooledRequests(); n != 0 {
		t.Fatalf("retired system pooled %d requests from its drained backlog", n)
	}
	if n := y.PooledRequests(); n != 0 {
		t.Fatalf("stopped fleet: live app y still holds %d free requests", n)
	}
}
