package fleet

import (
	"reflect"
	"testing"

	"archadapt/internal/core"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// TestMonitoringEquivalenceFleetSummaries runs the same fleet scenario on
// the fleet-shared monitoring plane (the default) and with per-application
// monitoring forced (Config.perAppMonitoring), and requires byte-identical
// summaries: sharing the bus and gauge manager must not change simulation
// results, only their cost. This mirrors TestSolverEquivalenceFleetSummaries
// — the per-app plane is the retained reference. It is not a scenario
// option, so the reference side places the scenario's script on the kernel
// by hand, from the same defaulted options StartScenario works from.
func TestMonitoringEquivalenceFleetSummaries(t *testing.T) {
	base := ScenarioOptions{
		Apps: 4, Seed: 9, Duration: 300, Adaptive: true,
		AdmitStagger: 3,
		CrushStart:   120, CrushStagger: 5, CrushDuration: 120,
	}
	shared, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	o := base.withDefaults()
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: o.Routers, HostsPerRouter: o.HostsPerRouter, Seed: o.Seed})
	f, err := New(k, grid, o.Seed, Config{Adaptive: true, HostCapacity: o.HostCapacity, perAppMonitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.Apps; i++ {
		spec := o.App
		spec.Name = ScenarioAppName(i)
		admitAt := float64(i) * o.AdmitStagger
		k.At(admitAt, func() {
			if _, err := f.Admit(spec); err != nil {
				t.Errorf("admitting %s: %v", spec.Name, err)
			}
		})
		// 100 s after each admission is before CrushStart: no onset is delayed.
		crushAt := o.CrushStart + float64(i)*o.CrushStagger
		k.At(crushAt, func() { _ = f.CrushPrimary(spec.Name) })
		k.At(crushAt+o.CrushDuration, func() { f.RestorePrimary(spec.Name) })
	}
	k.Run(o.Duration)
	f.Stop()
	k.Run(o.Duration + 120)
	perApp := f.Summaries()
	if !reflect.DeepEqual(shared.Summaries, perApp) {
		t.Fatalf("summaries diverged between monitoring planes:\nshared:\n%s\nper-app:\n%s",
			Table(shared.Summaries), Table(perApp))
	}
	if st, pt := Table(shared.Summaries), Table(perApp); st != pt {
		t.Fatalf("summary tables diverged:\n%s\nvs\n%s", st, pt)
	}
	// Same-seed determinism still holds on the shared plane.
	again, err := RunScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared.Summaries, again.Summaries) {
		t.Fatal("shared-plane runs are not deterministic across same-seed runs")
	}
}

// TestMonitoringEquivalenceWithRetirement extends the oracle comparison to
// mid-run retirement: the shared plane fully detaches a retired app (probes,
// subscriptions, gauges) while the per-app reference leaves its private
// monitoring running — the summaries must still be byte-identical, because
// post-retirement monitoring must have no observable effect. The comparison
// holds under each monitoring-plane setting (gauge caching, prioritized
// monitoring, both), the shared plane carries the configured setting, and
// caching reaches it: alpha's repairs speed up on both planes alike.
func TestMonitoringEquivalenceWithRetirement(t *testing.T) {
	run := func(mgr core.Config, perApp bool) []AppSummary {
		k := sim.NewKernel()
		grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 9, HostsPerRouter: 3, Seed: 21})
		f, err := New(k, grid, 21, Config{Adaptive: true, HostCapacity: 1, Manager: mgr, perAppMonitoring: perApp})
		if err != nil {
			t.Fatal(err)
		}
		p := mgr.MonitoringPriority
		if f.ProbeBus.Priority != p || f.ReportBus.Priority != p || f.Gauges.Priority != p || f.Gauges.Caching != mgr.GaugeCaching {
			t.Fatalf("shared plane priorities %v/%v/%v caching %v, want %v and %v",
				f.ProbeBus.Priority, f.ReportBus.Priority, f.Gauges.Priority, f.Gauges.Caching, p, mgr.GaugeCaching)
		}
		spec := AppSpec{Groups: 2, ServersPerGroup: 2, Clients: 2}
		for _, name := range []string{"alpha", "beta", "gamma"} {
			s := spec
			s.Name = name
			if _, err := f.Admit(s); err != nil {
				t.Fatalf("admitting %s: %v", name, err)
			}
		}
		k.At(120, func() { _ = f.CrushPrimary("alpha") })
		k.At(200, func() {
			if err := f.Retire("beta"); err != nil {
				t.Errorf("retiring beta: %v", err)
			}
			s := spec
			s.Name = "delta"
			if _, err := f.Admit(s); err != nil {
				t.Errorf("admitting delta: %v", err)
			}
		})
		k.At(240, func() { f.RestorePrimary("alpha") })
		k.Run(400)
		f.Stop()
		k.Run(520)
		return f.Summaries()
	}
	settings := []struct {
		name string
		mgr  core.Config
	}{
		{"default", core.Config{}},
		{"caching", core.Config{GaugeCaching: true}},
		{"prioritized", core.Config{MonitoringPriority: netsim.Prioritized}},
		{"caching+prioritized", core.Config{GaugeCaching: true, MonitoringPriority: netsim.Prioritized}},
	}
	alphaRepair := map[string]float64{}
	for _, st := range settings {
		shared := run(st.mgr, false)
		perApp := run(st.mgr, true)
		if !reflect.DeepEqual(shared, perApp) {
			t.Fatalf("%s: summaries diverged with retirement:\nshared:\n%s\nper-app:\n%s",
				st.name, Table(shared), Table(perApp))
		}
		if shared[0].Name != "alpha" || shared[0].Repairs == 0 {
			t.Fatalf("%s: alpha did not repair: %+v", st.name, shared[0])
		}
		alphaRepair[st.name] = shared[0].MeanRepairSeconds
	}
	// Destroy/recreate churn makes the paper's 30 s repairs; a cached
	// re-target is one round trip.
	if def, cached := alphaRepair["default"], alphaRepair["caching"]; cached > def/3 {
		t.Fatalf("alpha's mean repair %.3f s with caching, %.3f s without: caching did not reach the shared plane", cached, def)
	}
}

// TestSharedPlaneDetachAndReuse asserts the shared plane's lifecycle
// accounting across mid-run admission and retirement: a retired app's
// subscriptions are fully detached, its gauges torn down (no leaks, via
// Manager.Counts), and its shards recycled for the next admission.
func TestSharedPlaneDetachAndReuse(t *testing.T) {
	k := sim.NewKernel()
	grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 9, HostsPerRouter: 3, Seed: 5})
	f, err := New(k, grid, 5, Config{Adaptive: true, HostCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := AppSpec{Groups: 2, ServersPerGroup: 2, Clients: 2}
	for _, name := range []string{"alpha", "beta"} {
		s := spec
		s.Name = name
		if _, err := f.Admit(s); err != nil {
			t.Fatalf("admitting %s: %v", name, err)
		}
	}
	if got := f.ProbeBus.Tenants(); got != 2 {
		t.Fatalf("probe tenants = %d, want 2", got)
	}
	if got := f.Gauges.Leases(); got != 2 {
		t.Fatalf("gauge leases = %d, want 2", got)
	}
	// Each app deploys 2 latency + 2 bandwidth + 2 load gauges.
	k.Run(100)
	if got := f.Gauges.Deployed(); got != 12 {
		t.Fatalf("deployed gauges = %d, want 12", got)
	}
	creates0, deletes0, _ := f.Gauges.Counts()
	if creates0 != 12 || deletes0 != 0 {
		t.Fatalf("counts after deploy: creates=%d deletes=%d", creates0, deletes0)
	}

	// Retire beta: subscriptions detach, gauges tear down, shards free up.
	if err := f.Retire("beta"); err != nil {
		t.Fatal(err)
	}
	if got := f.ProbeBus.Tenants(); got != 1 {
		t.Fatalf("probe tenants after retire = %d, want 1", got)
	}
	if got := f.ReportBus.Tenants(); got != 1 {
		t.Fatalf("report tenants after retire = %d, want 1", got)
	}
	if got := f.Gauges.Leases(); got != 1 {
		t.Fatalf("gauge leases after retire = %d, want 1", got)
	}
	if got := f.Gauges.Deployed(); got != 6 {
		t.Fatalf("deployed gauges after retire = %d, want 6 (beta leaked)", got)
	}
	creates1, deletes1, _ := f.Gauges.Counts()
	if creates1-deletes1 != uint64(f.Gauges.Deployed()) {
		t.Fatalf("gauge leak: creates=%d deletes=%d deployed=%d",
			creates1, deletes1, f.Gauges.Deployed())
	}

	// A later admission reuses beta's released shards instead of growing the
	// pool: acquisitions rise, but so must tenant count, with no fresh shard
	// structures needed (4 acquisitions total, 2 apps live + 2 recycled).
	acquiredBefore := f.ProbeBus.ShardsAcquired()
	s := spec
	s.Name = "gamma"
	if _, err := f.Admit(s); err != nil {
		t.Fatal(err)
	}
	if got := f.ProbeBus.Tenants(); got != 2 {
		t.Fatalf("probe tenants after re-admit = %d, want 2", got)
	}
	if got := f.ProbeBus.ShardsAcquired(); got != acquiredBefore+1 {
		t.Fatalf("acquisitions = %d, want %d", got, acquiredBefore+1)
	}
	k.Run(200)
	if got := f.Gauges.Deployed(); got != 12 {
		t.Fatalf("deployed gauges after re-admit = %d, want 12", got)
	}
	// Beta's reporting stopped at retirement: its manager consumed reports
	// before retiring and none after (its model stops changing).
	if f.App("beta").Mgr.Reports() == 0 {
		t.Fatal("beta never consumed reports while live")
	}
	reportsAtRetire := f.App("beta").Mgr.Reports()
	k.Run(300)
	if got := f.App("beta").Mgr.Reports(); got != reportsAtRetire {
		t.Fatalf("beta consumed reports after retirement: %d -> %d", reportsAtRetire, got)
	}

	f.Stop()
	k.Run(420)
}
