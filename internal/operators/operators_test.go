package operators

import (
	"errors"
	"strings"
	"testing"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// paperSpec is the experiment's initial configuration: SG1 = {S1,S2,S3}
// active + S4 spare, SG2 = {S5,S6} active + S7 spare, six clients on SG1.
func paperSpec() Spec {
	return Spec{
		Name: "storage",
		Groups: []GroupSpec{
			{Name: "ServerGrp1", Servers: []string{"S1", "S2", "S3", "S4"}, ActiveCount: 3},
			{Name: "ServerGrp2", Servers: []string{"S5", "S6", "S7"}, ActiveCount: 2},
		},
		Clients: []ClientSpec{
			{Name: "C1", Group: "ServerGrp1"}, {Name: "C2", Group: "ServerGrp1"},
			{Name: "C3", Group: "ServerGrp1"}, {Name: "C4", Group: "ServerGrp1"},
			{Name: "C5", Group: "ServerGrp1"}, {Name: "C6", Group: "ServerGrp1"},
		},
		MaxLatency:    2.0,
		MaxServerLoad: 6.0,
		MinBandwidth:  10e3,
	}
}

func build(t *testing.T) *model.System {
	t.Helper()
	sys, err := Build(paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildShape(t *testing.T) {
	sys := build(t)
	if got := len(sys.ComponentsByType(TClient)); got != 6 {
		t.Fatalf("clients=%d", got)
	}
	g1 := sys.Component("ServerGrp1")
	if got := ActiveServers(g1); len(got) != 3 {
		t.Fatalf("active=%v", got)
	}
	if got := firstSpare(g1); got == nil || got.Name() != "S4" {
		t.Fatalf("first spare=%v", got)
	}
	if v, _ := g1.Props().Float(PropReplication); v != 3 {
		t.Fatalf("replication=%v", v)
	}
	grp, conn, role, err := GroupOf(sys, sys.Component("C3"))
	if err != nil {
		t.Fatal(err)
	}
	if grp.Name() != "ServerGrp1" || conn.Name() != "ServerGrp1Conn" || role.Name() != "C3Role" {
		t.Fatalf("GroupOf: %s %s %s", grp.Name(), conn.Name(), role.Name())
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(s *Spec)
	}{
		{"overfull ActiveCount", func(s *Spec) { s.Groups[0].ActiveCount = 9 }},
		{"negative ActiveCount", func(s *Spec) { s.Groups[0].ActiveCount = -1 }},
		{"unknown group", func(s *Spec) { s.Clients[0].Group = "NoSuchGroup" }},
		{"repeated group", func(s *Spec) { s.Groups[1].Name = s.Groups[0].Name }},
		{"repeated server in a group", func(s *Spec) { s.Groups[0].Servers[1] = "S1" }},
		{"server in two groups", func(s *Spec) { s.Groups[1].Servers[0] = "S1" }},
		{"repeated client", func(s *Spec) { s.Clients[1].Name = "C1" }},
		{"client named like a group", func(s *Spec) { s.Clients[0].Name = "ServerGrp2" }},
	} {
		s := paperSpec()
		c.edit(&s)
		if _, err := Build(s); err == nil || !strings.HasPrefix(err.Error(), "operators: ") {
			t.Errorf("%s: err %v, want an operators: error", c.name, err)
		}
	}
}

func TestAddServerActivatesSpare(t *testing.T) {
	sys := build(t)
	g1 := sys.Component("ServerGrp1")
	txn := repair.NewTxn(sys)
	name, err := AddServer(txn, g1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "S4" {
		t.Fatalf("activated %s, want S4", name)
	}
	if len(ActiveServers(g1)) != 4 {
		t.Fatal("S4 not active")
	}
	if v, _ := g1.Props().Float(PropReplication); v != 4 {
		t.Fatalf("replication=%v", v)
	}
	ops := txn.Ops()
	if len(ops) != 1 || ops[0].Kind != repair.OpAddServer || ops[0].Server != "S4" {
		t.Fatalf("ops=%v", ops)
	}
	// No spares left.
	if _, err := AddServer(txn, g1); err == nil {
		t.Fatal("second AddServer should fail (no spares)")
	}
}

func TestRemoveServer(t *testing.T) {
	sys := build(t)
	g1 := sys.Component("ServerGrp1")
	txn := repair.NewTxn(sys)
	if err := RemoveServer(txn, g1, "S2"); err != nil {
		t.Fatal(err)
	}
	if len(ActiveServers(g1)) != 2 {
		t.Fatal("S2 still active")
	}
	// Default picks the last active server.
	if err := RemoveServer(txn, g1, ""); err != nil {
		t.Fatal(err)
	}
	if got := ActiveServers(g1); len(got) != 1 || got[0] != "S1" {
		t.Fatalf("active=%v", got)
	}
	// Refuses to remove the last one.
	if err := RemoveServer(txn, g1, ""); err == nil {
		t.Fatal("removing last server should fail")
	}
}

func TestMoveClient(t *testing.T) {
	sys := build(t)
	snap := sys.Clone()
	cli := sys.Component("C3")
	g2 := sys.Component("ServerGrp2")
	txn := repair.NewTxn(sys)
	if err := MoveClient(txn, sys, cli, g2, 5e6); err != nil {
		t.Fatal(err)
	}
	grp, conn, role, err := GroupOf(sys, cli)
	if err != nil {
		t.Fatal(err)
	}
	if grp.Name() != "ServerGrp2" || conn.Name() != "ServerGrp2Conn" {
		t.Fatalf("client on %s via %s", grp.Name(), conn.Name())
	}
	if bw, _ := role.Props().Float(PropBandwidth); bw != 5e6 {
		t.Fatalf("seeded bandwidth=%v", bw)
	}
	if sys.Connector("ServerGrp1Conn").Role("C3Role") != nil {
		t.Fatal("old role not removed")
	}
	ops := txn.Ops()
	if len(ops) != 1 || ops[0].Kind != repair.OpMoveClient || ops[0].Group != "ServerGrp2" {
		t.Fatalf("ops=%v", ops)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	// Abort restores everything.
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if !sys.Equal(snap) {
		t.Fatal("move rollback failed")
	}
	// Moving to the same group is rejected.
	txn2 := repair.NewTxn(sys)
	g1 := sys.Component("ServerGrp1")
	if err := MoveClient(txn2, sys, cli, g1, 0); err == nil {
		t.Fatal("no-op move should fail")
	}
}

// violationFor fabricates a latency violation for a client.
func violationFor(sys *model.System, client string) constraint.Violation {
	inv := constraint.MustInvariant(InvLatency, TClient, "averageLatency <= maxLatency")
	sys.Component(client).Props().Set(PropAvgLatency, 10.0)
	for _, v := range inv.Check(sys, nil, true) {
		if v.Subject.Name() == client {
			return v
		}
	}
	panic("no violation for " + client)
}

// tactic binds one hand-coded tactic as a strategy of its own: it commits
// when the tactic applies and declines when it does not.
func tactic(name string, fn func(*repair.Context) (bool, error)) *repair.Strategy {
	return &repair.Strategy{Name: "s", Script: func(ctx *repair.Context) ([]string, error) {
		switch ok, err := fn(ctx); {
		case err != nil:
			return nil, err
		case !ok:
			return nil, repair.ErrNoTacticApplied
		}
		return []string{name}, nil
	}}
}

// bandwidthTactic binds fixBandwidth over query alone.
func bandwidthTactic(query GroupQuery) *repair.Strategy {
	return tactic("fixBandwidth", func(ctx *repair.Context) (bool, error) { return fixBandwidth(ctx, query) })
}

func TestFixServerLoadTactic(t *testing.T) {
	sys := build(t)
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0) // overloaded
	strat := tactic("fixServerLoad", fixServerLoad)
	out := strat.Execute(sys, violationFor(sys, "C1"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Ops) != 1 || out.Ops[0].Server != "S4" {
		t.Fatalf("ops=%v", out.Ops)
	}
	// Second violation: spares exhausted → tactic declines.
	out2 := strat.Execute(sys, violationFor(sys, "C2"))
	if !errors.Is(out2.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v", out2.Err)
	}
}

func TestFixServerLoadIgnoresUnconnectedGroups(t *testing.T) {
	sys := build(t)
	// Overload SG2, which C1 is NOT connected to: tactic must decline.
	sys.Component("ServerGrp2").Props().Set(PropLoad, 99.0)
	strat := tactic("fixServerLoad", fixServerLoad)
	out := strat.Execute(sys, violationFor(sys, "C1"))
	if !errors.Is(out.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v", out.Err)
	}
}

func TestFixBandwidthMovesClient(t *testing.T) {
	sys := build(t)
	// C3's role reports starved bandwidth.
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3) // below the 10 Kbps floor
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	strat := bandwidthTactic(query)
	out := strat.Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	grp, _, newRole, _ := GroupOf(sys, sys.Component("C3"))
	if grp.Name() != "ServerGrp2" {
		t.Fatalf("client on %s", grp.Name())
	}
	if bw, _ := newRole.Props().Float(PropBandwidth); bw != 5e6 {
		t.Fatalf("bw=%v", bw)
	}
}

func TestFixBandwidthDeclinesWhenHealthy(t *testing.T) {
	sys := build(t)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e6) // plenty
	strat := bandwidthTactic(func(*model.System, *model.Component, float64) (*model.Component, float64) {
		t.Fatal("query should not run when bandwidth is healthy")
		return nil, 0
	})
	out := strat.Execute(sys, violationFor(sys, "C3"))
	if !errors.Is(out.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v", out.Err)
	}
}

func TestFixBandwidthAbortsWhenNoGroup(t *testing.T) {
	sys := build(t)
	snap := sys.Clone()
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	snap = sys.Clone() // include the property
	query := func(*model.System, *model.Component, float64) (*model.Component, float64) { return nil, 0 }
	strat := bandwidthTactic(query)
	out := strat.Execute(sys, violationFor(sys, "C3"))
	if out.Err == nil || !errors.Is(out.Err, ErrNoServerGroupFound) {
		t.Fatalf("err=%v", out.Err)
	}
	sys.Component("C3").Props().Set(PropAvgLatency, 10.0) // violationFor set it before clone
	snap.Component("C3").Props().Set(PropAvgLatency, 10.0)
	if !sys.Equal(snap) {
		t.Fatal("abort must leave model unchanged")
	}
}

func TestFixBandwidthDeclinesWhenBestIsCurrent(t *testing.T) {
	sys := build(t)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp1"), 1e6 // current group
	}
	strat := bandwidthTactic(query)
	out := strat.Execute(sys, violationFor(sys, "C3"))
	if !errors.Is(out.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v", out.Err)
	}
}

func TestFixLatencyPrefersServerLoadOverMove(t *testing.T) {
	// Both causes present: the strategy must apply fixServerLoad first
	// (the paper's prototype "prioritize[d] server load repairs").
	sys := build(t)
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	out := FixLatency(query).Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Applied) != 1 || out.Applied[0] != "fixServerLoad" {
		t.Fatalf("applied=%v", out.Applied)
	}
	grp, _, _, _ := GroupOf(sys, sys.Component("C3"))
	if grp.Name() != "ServerGrp1" {
		t.Fatal("client should not have moved")
	}
}

func TestFixLatencyFallsBackToMove(t *testing.T) {
	sys := build(t)
	// Exhaust SG1's spare first.
	txn := repair.NewTxn(sys)
	if _, err := AddServer(txn, sys.Component("ServerGrp1")); err != nil {
		t.Fatal(err)
	}
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	out := FixLatency(query).Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Applied) != 1 || out.Applied[0] != "fixBandwidth" {
		t.Fatalf("applied=%v", out.Applied)
	}
	grp, _, _, _ := GroupOf(sys, sys.Component("C3"))
	if grp.Name() != "ServerGrp2" {
		t.Fatal("client should have moved to SG2")
	}
}

func TestFixUnderutilizationShrinks(t *testing.T) {
	sys := build(t)
	sys.Props().Set(PropMinServerLoad, 1.0)
	sys.Props().Set(PropMinReplicas, 1.0)
	g2 := sys.Component("ServerGrp2")
	g2.Props().Set(PropLoad, 0.1)
	inv := constraint.MustInvariant(InvUtilization, TServerGroup,
		"load >= minServerLoad or replicationCount <= minReplicas")
	vs := inv.Check(sys, nil, true)
	if len(vs) == 0 {
		t.Fatal("expected utilization violation")
	}
	var g2v constraint.Violation
	for _, v := range vs {
		if v.Subject.Name() == "ServerGrp2" {
			g2v = v
		}
	}
	shrink, err := CompileShrink()
	if err != nil {
		t.Fatal(err)
	}
	out := shrink.Execute(sys, g2v)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := ActiveServers(g2); len(got) != 1 || len(out.Applied) != 1 || out.Applied[0] != "fixUnderutilization" {
		t.Fatalf("active after shrink=%v, applied %v", got, out.Applied)
	}
	if len(out.Ops) != 1 || out.Ops[0] != (repair.Op{Kind: repair.OpRemoveServer, Group: "ServerGrp2", Server: "S6"}) {
		t.Fatalf("ops=%v", out.Ops)
	}
	// At the floor now: strategy declines. With the floor below one
	// server it still declines, rather than fail on a remove that refuses
	// to empty the group.
	for _, minReplicas := range []float64{1, 0} {
		sys.Props().Set(PropMinReplicas, minReplicas)
		if out := shrink.Execute(sys, g2v); !errors.Is(out.Err, repair.ErrNoTacticApplied) {
			t.Fatalf("minReplicas %v: err=%v", minReplicas, out.Err)
		}
	}
	if got := ActiveServers(g2); len(got) != 1 {
		t.Fatalf("active after declined shrinks=%v", got)
	}
}

// TestDeclinedRepairAllocationFree: the openloop-surge tick. A client on an
// overloaded group that has no spare left, with healthy role bandwidth,
// violates the latency bound; the Figure 5 strategy declines both tactics and
// the engine alerts. Re-checking and re-deciding that standing violation
// allocates nothing.
func TestDeclinedRepairAllocationFree(t *testing.T) {
	checkDeclinedTick(t, FixLatency(noQuery(t)))
}

// The same for the compiled Figure 5 script.
func TestScriptedDeclinedRepairAllocationFree(t *testing.T) {
	strat, err := CompileFixLatency(noQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	checkDeclinedTick(t, strat)
}

// TestAbortingRepairAllocationFree: while no group can take a starved
// client, FixLatency aborts with ErrNoServerGroupFound on every check tick.
// The abort keeps its wrapped text and allocates nothing.
func TestAbortingRepairAllocationFree(t *testing.T) {
	sys, eng, _ := declinedTick(t, FixLatency(func(*model.System, *model.Component, float64) (*model.Component, float64) {
		return nil, 0
	}))
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	v := violationFor(sys, "C3")
	decide := func() {
		rec := eng.HandleViolation(v, 100)
		if rec == nil || !errors.Is(rec.Err, ErrNoServerGroupFound) {
			t.Fatalf("record %+v, want the NoServerGroupFound abort", rec)
		}
		if got, want := rec.Err.Error(), "repair: tactic fixBandwidth: operators: no server group with sufficient bandwidth"; got != want {
			t.Fatalf("error %q, want %q", got, want)
		}
	}
	decide()
	if avg := testing.AllocsPerRun(1000, decide); avg != 0 {
		t.Errorf("%v allocations per aborting decision, want 0", avg)
	}
}

// noQuery is a group query that fails the test if it runs: in the declined
// fixture the bandwidth is healthy.
func noQuery(t testing.TB) GroupQuery {
	return func(*model.System, *model.Component, float64) (*model.Component, float64) {
		t.Fatal("group query ran with healthy bandwidth")
		return nil, 0
	}
}

// declinedTick builds the declined fixture with strat bound to the latency
// invariant and returns one check tick over it, and the engine.
func declinedTick(t testing.TB, strat *repair.Strategy) (*model.System, *repair.Engine, func()) {
	sys, err := Build(paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	sg1 := sys.Component("ServerGrp1")
	if _, err := AddServer(repair.NewTxn(sys), sg1); err != nil { // S4, the last spare
		t.Fatal(err)
	}
	sg1.Props().Set(PropLoad, 9.0)
	sys.Component("ServerGrp2").Props().Set(PropLoad, 1.0)
	for _, c := range sys.ComponentsByType(TClient) {
		c.Props().Set(PropAvgLatency, 1.0)
		_, _, role, _ := GroupOf(sys, c)
		role.Props().Set(PropBandwidth, 5e6) // ≥ minBandwidth: fixBandwidth declines
	}
	sys.Component("C3").Props().Set(PropAvgLatency, 10.0)

	reg := constraint.NewRegistry()
	reg.Add(constraint.MustInvariant(InvLatency, TClient, "averageLatency <= maxLatency"))
	reg.Add(constraint.MustInvariant(InvLoad, TServerGroup, "load <= maxServerLoad"))
	reg.Add(constraint.MustInvariant(InvBandwidth, TClientRole, "bandwidth >= minBandwidth"))
	eng := repair.NewEngine(sys, repair.TranslatorFunc(func(op repair.Op) error {
		t.Fatalf("declined repair translated %v", op)
		return nil
	}))
	eng.Bind(InvLatency, strat)
	return sys, eng, func() {
		vs := reg.CheckAll(sys)
		if len(vs) != 2 { // C3's latency, SG1's load
			t.Fatalf("violations %v, want C3 latency and ServerGrp1 load", vs)
		}
		if rec := eng.HandleAll(vs, 100); rec != nil {
			t.Fatalf("committed %+v", *rec)
		}
	}
}

func checkDeclinedTick(t *testing.T, strat *repair.Strategy) {
	sys, eng, tick := declinedTick(t, strat)
	alerts := 0
	eng.AlertFn = func(constraint.Violation) { alerts++ }
	snap := sys.Clone()
	tick()
	if avg := testing.AllocsPerRun(1000, tick); avg != 0 {
		t.Errorf("%v allocations per declined check tick, want 0", avg)
	}
	if alerts != 1002 {
		t.Errorf("alerts %d, want one per tick: 1002", alerts)
	}
	if !sys.Equal(snap) {
		t.Error("declined repairs changed the model")
	}
}

// BenchmarkDeclinedRepair prices one declined check tick (CheckAll and
// HandleAll) under the hand-coded strategy and under the compiled script.
func BenchmarkDeclinedRepair(b *testing.B) {
	script, err := CompileFixLatency(noQuery(b))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		strat *repair.Strategy
	}{{"hand", FixLatency(noQuery(b))}, {"script", script}} {
		b.Run(bc.name, func(b *testing.B) {
			_, _, tick := declinedTick(b, bc.strat)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}

func TestEngineEndToEndWithOperators(t *testing.T) {
	// Full loop: violation → engine → fixLatency → ops to translator.
	sys := build(t)
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
	var translated []repair.Op
	eng := repair.NewEngine(sys, repair.TranslatorFunc(func(op repair.Op) error {
		translated = append(translated, op)
		return nil
	}))
	eng.Bind(InvLatency, FixLatency(nil))
	rec := eng.HandleViolation(violationFor(sys, "C1"), 100)
	if rec == nil || rec.Err != nil {
		t.Fatalf("record %+v", rec)
	}
	if len(translated) != 1 || translated[0].Kind != repair.OpAddServer {
		t.Fatalf("translated=%v", translated)
	}
}
