package core

import (
	"reflect"
	"runtime"
	"testing"

	"archadapt/internal/app"
	"archadapt/internal/bus"
	"archadapt/internal/constraint"
	"archadapt/internal/gauges"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// rig builds a minimal two-group deployment with the manager on its own
// host.
type rig struct {
	k         *sim.Kernel
	net       *netsim.Network
	a         *app.System
	mgr       *Manager
	crushLink netsim.LinkID
	gbLink    netsim.LinkID // r1-r3, the path to group GB
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r1 := net.AddRouter("r1")
	r2 := net.AddRouter("r2")
	cHost := net.AddHost("cHost")
	aHost := net.AddHost("aHost")
	bHost := net.AddHost("bHost")
	spareHost := net.AddHost("spareHost")
	mHost := net.AddHost("mHost")
	qHost := net.AddHost("qHost")
	net.Connect(cHost, r1, 10e6, 1e-3)
	crush := net.Connect(r1, r2, 10e6, 1e-3)
	net.Connect(aHost, r2, 10e6, 1e-3)
	net.Connect(spareHost, r2, 10e6, 1e-3)
	r3 := net.AddRouter("r3")
	gb := net.Connect(r1, r3, 10e6, 1e-3)
	net.Connect(bHost, r3, 10e6, 1e-3)
	net.Connect(mHost, r3, 10e6, 1e-3)
	net.Connect(qHost, r3, 10e6, 1e-3)

	a := app.New(k, net, qHost)
	_ = a.CreateQueue("GA")
	_ = a.CreateQueue("GB")
	a.AddServer("A1", aHost, "GA", 0.05, 2.4e-6)
	a.AddServer("A2", spareHost, "GA", 0.05, 2.4e-6) // spare
	a.AddServer("B1", bHost, "GB", 0.05, 2.4e-6)
	_ = a.Activate("A1")
	_ = a.Activate("B1")
	a.AddClient("C1", cHost, "GA", 1.0, sim.NewRand(3))

	mdl, err := operators.Build(operators.Spec{
		Name: "rig",
		Groups: []operators.GroupSpec{
			{Name: "GA", Servers: []string{"A1", "A2"}, ActiveCount: 1},
			{Name: "GB", Servers: []string{"B1"}, ActiveCount: 1},
		},
		Clients:       []operators.ClientSpec{{Name: "C1", Group: "GA"}},
		MaxLatency:    2.0,
		MaxServerLoad: 6,
		MinBandwidth:  10e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rm := remos.New(k, net, mHost)
	mgr := New(cfg, k, net, a, mdl, mHost, rm)
	return &rig{k: k, net: net, a: a, mgr: mgr, crushLink: crush, gbLink: gb}
}

func TestDeployCreatesMonitoring(t *testing.T) {
	r := newRig(t, Config{})
	r.mgr.Deploy()
	r.a.Start()
	r.k.Run(120)
	// 1 client × (latency + bandwidth) + 2 groups × load = 4 gauges.
	if got := r.mgr.GaugeMgr.Deployed(); got != 4 {
		t.Fatalf("gauges=%d, want 4", got)
	}
	if r.mgr.Reports() == 0 {
		t.Fatal("no gauge reports consumed")
	}
	// The model learned measured properties.
	c1 := r.mgr.Model.Component("C1")
	if _, ok := c1.Props().Float(operators.PropAvgLatency); !ok {
		t.Fatal("averageLatency never reached the model")
	}
	_, _, role, err := operators.GroupOf(r.mgr.Model, c1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := role.Props().Float(operators.PropBandwidth); !ok {
		t.Fatal("bandwidth never reached the model")
	}
	if r.mgr.Checks() == 0 {
		t.Fatal("control loop never ran")
	}
	if len(r.mgr.Spans()) != 0 {
		t.Fatalf("healthy system repaired itself: %+v", r.mgr.Spans())
	}
}

func TestBandwidthViolationTriggersMove(t *testing.T) {
	r := newRig(t, Config{})
	r.mgr.Deploy()
	r.a.Start()
	r.k.At(150, func() { r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3) })
	r.k.Run(400)
	if r.a.Client("C1").Group != "GB" {
		t.Fatalf("client not moved; group=%s spans=%+v alerts=%d",
			r.a.Client("C1").Group, r.mgr.Spans(), len(r.mgr.Alerts()))
	}
	// Model and runtime agree.
	grp, _, _, err := operators.GroupOf(r.mgr.Model, r.mgr.Model.Component("C1"))
	if err != nil || grp.Name() != "GB" {
		t.Fatalf("model group=%v err=%v", grp, err)
	}
	found := false
	for _, sp := range r.mgr.Spans() {
		for _, op := range sp.Ops {
			if op.Kind == repair.OpMoveClient && op.Group == "GB" {
				found = true
			}
		}
		if sp.End <= sp.Start {
			t.Fatal("span has no duration")
		}
	}
	if !found {
		t.Fatal("no move op recorded")
	}
}

func TestOverloadTriggersAddServer(t *testing.T) {
	r := newRig(t, Config{})
	r.mgr.Deploy()
	// Overwhelm GA's single active server: 4 req/s of 20KB (≈0.45 s each).
	cli := r.a.Client("C1")
	cli.Rate = 4
	cli.RespBits = app.ConstSize(20 * 8192)
	r.a.Start()
	r.k.Run(400)
	if !r.a.Server("A2").Active() {
		t.Fatalf("spare never activated; spans=%+v", r.mgr.Spans())
	}
	grp := r.mgr.Model.Component("GA")
	if got := operators.ActiveServers(grp); len(got) != 2 {
		t.Fatalf("model servers=%v", got)
	}
}

func TestDisableRepairsObservesOnly(t *testing.T) {
	r := newRig(t, Config{DisableRepairs: true})
	r.mgr.Deploy()
	r.a.Start()
	r.k.At(150, func() { r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3) })
	r.k.Run(500)
	if len(r.mgr.Spans()) != 0 {
		t.Fatal("observer mode repaired")
	}
	if r.mgr.ViolationsSeen() == 0 {
		t.Fatal("observer mode should still see violations")
	}
	if r.a.Client("C1").Group != "GA" {
		t.Fatal("client moved in observer mode")
	}
}

func TestRepairDurationIncludesGaugeChurn(t *testing.T) {
	r := newRig(t, Config{})
	r.mgr.Deploy()
	r.a.Start()
	r.k.At(150, func() { r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3) })
	r.k.Run(600)
	spans := r.mgr.Spans()
	if len(spans) == 0 {
		t.Fatal("no repairs")
	}
	// Destroy/recreate churn for latency+bandwidth gauges: tens of seconds.
	if d := spans[0].Duration(); d < 10 || d > 200 {
		t.Fatalf("repair duration %v, want tens of seconds", d)
	}
	creates, deletes, _ := r.mgr.GaugeMgr.Counts()
	if deletes == 0 || creates <= 4 {
		t.Fatalf("no gauge churn recorded: creates=%d deletes=%d", creates, deletes)
	}
}

func TestGaugeCachingShortensSpans(t *testing.T) {
	run := func(caching bool) float64 {
		r := newRig(t, Config{GaugeCaching: caching})
		r.mgr.Deploy()
		r.a.Start()
		r.k.At(150, func() { r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3) })
		r.k.Run(600)
		spans := r.mgr.Spans()
		if len(spans) == 0 {
			t.Fatal("no repairs")
		}
		return spans[0].Duration()
	}
	slow := run(false)
	fast := run(true)
	if fast >= slow/2 {
		t.Fatalf("caching churn %v not much faster than recreate %v", fast, slow)
	}
	_, _, retargets := func() (uint64, uint64, uint64) {
		r := newRig(t, Config{GaugeCaching: true})
		r.mgr.Deploy()
		r.a.Start()
		r.k.At(150, func() { r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3) })
		r.k.Run(600)
		return r.mgr.GaugeMgr.Counts()
	}()
	if retargets == 0 {
		t.Fatal("caching mode never retargeted")
	}
}

func TestAlertsOnUnrepairable(t *testing.T) {
	// Crush the path but make GB unattractive too (no better group): the
	// engine should escalate rather than thrash.
	r := newRig(t, Config{})
	failed := failedSpans(r.mgr)
	r.mgr.Deploy()
	r.a.Start()
	r.k.At(150, func() {
		r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3)
		// Also crush the GB path.
		r.net.SetBackgroundBoth(r.gbLink, 10e6-5e3)
	})
	r.k.Run(500)
	if r.a.Client("C1").Group != "GA" {
		t.Fatal("client moved with nowhere to go")
	}
	if len(r.mgr.Alerts())+*failed == 0 {
		t.Fatal("no escalation recorded")
	}
}

// failedSpans counts, from the engine's observer on, the repair attempts that
// resolved with an error.
func failedSpans(m *Manager) *int {
	n := new(int)
	m.Engine.Observer = func(rec *repair.Record, _ constraint.Violation, _ float64) {
		if rec.Err != nil {
			*n++
		}
	}
	return n
}

func TestScaleDownConfig(t *testing.T) {
	r := newRig(t, Config{ScaleDown: true, SettleTime: 30, LoadSmoothing: 0.3})
	// Activate the spare manually, keep the client idle: the group is
	// underutilized and should shrink back.
	_ = r.a.Activate("A2")
	mdl := r.mgr.Model
	grp := mdl.Component("GA")
	txn := repair.NewTxn(mdl)
	if _, err := operators.AddServer(txn, grp); err != nil {
		t.Fatal(err)
	}
	r.a.Client("C1").Rate = 0.05 // nearly idle
	r.mgr.Deploy()
	r.a.Start()
	r.k.Run(600)
	if r.a.Server("A2").Active() {
		t.Fatalf("underutilized spare not deactivated; spans=%+v", r.mgr.Spans())
	}
}

func TestManagerString(t *testing.T) {
	r := newRig(t, Config{})
	if s := r.mgr.String(); s == "" {
		t.Fatal("empty string")
	}
}

// The alert log hands back exactly the escalations the engine raised, in
// order, with their times, subjects and reason. A strategy that never
// applies is bound to the latency invariant, whose subjects are client
// components, to the bandwidth invariant, whose subjects are roles, and to
// a system-scoped invariant that always fails, whose subject is "system",
// so the log holds subjects inside and outside the model's components.
func TestAlertLogMatchesEngine(t *testing.T) {
	r := newRig(t, Config{})
	never := &repair.Strategy{Name: "never",
		Script: func(*repair.Context) ([]string, error) { return nil, repair.ErrNoTacticApplied }}
	r.mgr.Engine.Bind(operators.InvLatency, never)
	r.mgr.Engine.Bind(operators.InvBandwidth, never)
	r.mgr.Registry.Add(constraint.MustInvariant("unsatisfiable", "", "false"))
	r.mgr.Engine.Bind("unsatisfiable", never)
	var want []Alert
	inner := r.mgr.Engine.AlertFn
	r.mgr.Engine.AlertFn = func(v constraint.Violation) {
		want = append(want, Alert{Time: r.k.Now(), Subject: v.SubjectName(), Reason: repair.AlertReason})
		inner(v)
	}
	r.mgr.Deploy()
	r.a.Start()
	r.k.At(150, func() {
		r.net.SetBackgroundBoth(r.crushLink, 10e6-5e3)
		r.net.SetBackgroundBoth(r.gbLink, 10e6-5e3)
	})
	r.k.Run(1200)
	got := r.mgr.Alerts()
	subjects := map[string]bool{}
	for _, a := range want {
		subjects[a.Subject] = true
	}
	// More than the first two chunks, on a client, a role and the system.
	if len(want) <= firstAlertChunk*3 || len(subjects) < 3 {
		t.Fatalf("%d escalations on %v: too few to cross a chunk or to mix subjects", len(want), subjects)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Alerts() = %v\nengine raised %v", got, want)
	}
	if n := r.mgr.AlertCount(); n != len(got) {
		t.Fatalf("AlertCount() = %d, Alerts() holds %d", n, len(got))
	}
}

// An escalation costs its 16-byte record and the chunk's slack, not a grown
// and copied slice: 10 000 alerts stay within 20 B each, and allocate no more
// often than once a chunk plus the chunk list's growth.
func TestAlertLogBytes(t *testing.T) {
	r := newRig(t, Config{})
	v := constraint.Violation{Subject: r.mgr.Model.Component("C1")}
	const n = 10000
	// MemStats are process-wide: one P, and a collection finished before the
	// window opens, keep other goroutines' allocations out of it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.mgr.Engine.AlertFn(v)
	}
	runtime.ReadMemStats(&after)
	chunks := len(r.mgr.alerts.chunks)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d alerts: %d B (%.1f B each), %d mallocs, %d chunks", n, bytes, float64(bytes)/n, mallocs, chunks)
	if bytes > 20*n {
		t.Fatalf("%d alerts cost %d B, over 20 B each", n, bytes)
	}
	if mallocs > uint64(chunks)+8 {
		t.Fatalf("%d alerts took %d mallocs for %d chunks", n, mallocs, chunks)
	}
	if got := r.mgr.AlertCount(); got != n {
		t.Fatalf("AlertCount() = %d, want %d", got, n)
	}
	if a := r.mgr.Alerts(); len(a) != n || a[n-1] != (Alert{Subject: "C1", Reason: repair.AlertReason}) {
		t.Fatalf("Alerts() holds %d, last %+v", len(a), a[len(a)-1])
	}
}

// A gauge report lands on the element its slot resolved to, and the slot
// follows the model's structure: after a MoveClient the client's bandwidth
// reports write its new role, and after the move's transaction aborts they
// write the restored original again.
func TestReportTargetFollowsModelStructure(t *testing.T) {
	r := newRig(t, Config{})
	r.mgr.Deploy()
	mdl := r.mgr.Model
	cli := mdl.Component("C1")
	roleNow := func() *model.Role {
		t.Helper()
		_, _, role, err := operators.GroupOf(mdl, cli)
		if err != nil {
			t.Fatal(err)
		}
		return role
	}
	slot := func(gauge string) int32 {
		switch g := r.mgr.GaugeMgr.Gauge(gauge).(type) {
		case *gauges.BandwidthGauge:
			return g.Slot
		case *gauges.LatencyGauge:
			return g.Slot
		}
		t.Fatalf("no gauge %s", gauge)
		return 0
	}
	report := func(gauge, kind, prop string, v float64) {
		r.mgr.consumeReport(bus.Message{Topic: gauges.TopicReport, Name: gauge, Target: "C1",
			Kind: kind, Prop: prop, V1: v, Tag: slot(gauge)})
	}
	bandwidth := func(v float64) {
		report("bandwidth:C1", gauges.KindClientRole, operators.PropBandwidth, v)
	}
	bwOf := func(role *model.Role) float64 { return role.Props().FloatOr(operators.PropBandwidth, -1) }

	first := roleNow()
	bandwidth(111)
	if got := bwOf(first); got != 111 {
		t.Fatalf("bandwidth on the client's role = %v, want 111", got)
	}
	report("latency:C1", gauges.KindClient, operators.PropAvgLatency, 0.5)
	if got := cli.Props().FloatOr(operators.PropAvgLatency, -1); got != 0.5 {
		t.Fatalf("averageLatency on the client = %v, want 0.5", got)
	}

	txn := repair.NewTxn(mdl)
	if err := operators.MoveClient(txn, mdl, cli, mdl.Component("GB"), 0); err != nil {
		t.Fatal(err)
	}
	moved := roleNow()
	if moved == first {
		t.Fatal("MoveClient kept the role")
	}
	bandwidth(222)
	if bwOf(moved) != 222 || bwOf(first) != 111 {
		t.Fatalf("after the move: new role %v, old role %v; want 222 on the new one only", bwOf(moved), bwOf(first))
	}

	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if roleNow() != first {
		t.Fatal("the abort did not restore the original role")
	}
	bandwidth(333)
	if bwOf(first) != 333 || bwOf(moved) != 222 {
		t.Fatalf("after the abort: restored role %v, discarded role %v; want 333 on the restored one only", bwOf(first), bwOf(moved))
	}
	if r.mgr.Reports() != 4 {
		t.Fatalf("reports consumed %d, want 4", r.mgr.Reports())
	}
}
