package operators

import (
	"errors"
	"strings"
	"testing"

	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// The compiled Figure 5 script must reproduce the hand-coded strategy's
// decisions on every scenario the hand-coded tests cover.

func compiled(t *testing.T, query GroupQuery) *repair.Strategy {
	t.Helper()
	s, err := CompileFixLatency(query)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScriptedFixServerLoad(t *testing.T) {
	sys := build(t)
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
	out := compiled(t, nil).Execute(sys, violationFor(sys, "C1"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Ops) != 1 || out.Ops[0].Kind != repair.OpAddServer || out.Ops[0].Server != "S4" {
		t.Fatalf("ops=%v", out.Ops)
	}
	if got := ActiveServers(sys.Component("ServerGrp1")); len(got) != 4 {
		t.Fatalf("active=%v", got)
	}
}

func TestScriptedFixBandwidthMove(t *testing.T) {
	sys := build(t)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	out := compiled(t, query).Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Ops) != 1 || out.Ops[0].Kind != repair.OpMoveClient || out.Ops[0].Group != "ServerGrp2" {
		t.Fatalf("ops=%v", out.Ops)
	}
	grp, _, _, _ := GroupOf(sys, sys.Component("C3"))
	if grp.Name() != "ServerGrp2" {
		t.Fatal("client not moved")
	}
}

func TestScriptedAbortNoServerGroupFound(t *testing.T) {
	sys := build(t)
	snap := sys.Clone()
	snap.Component("C3").Props().Set(PropAvgLatency, 10.0)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	snap = sys.Clone()
	snap.Component("C3").Props().Set(PropAvgLatency, 10.0)
	query := func(*model.System, *model.Component, float64) (*model.Component, float64) { return nil, 0 }
	out := compiled(t, query).Execute(sys, violationFor(sys, "C3"))
	if out.Err == nil || !strings.Contains(out.Err.Error(), "NoServerGroupFound") {
		t.Fatalf("err=%v", out.Err)
	}
	if !sys.Equal(snap) {
		t.Fatal("abort must leave model unchanged")
	}
}

func TestScriptedAbortModelErrorWhenNothingApplies(t *testing.T) {
	// Healthy load, healthy bandwidth: both tactics decline and Figure 5
	// line 13 aborts with ModelError.
	sys := build(t)
	_, _, role, _ := GroupOf(sys, sys.Component("C1"))
	role.Props().Set(PropBandwidth, 5e6)
	out := compiled(t, nil).Execute(sys, violationFor(sys, "C1"))
	if !errors.Is(out.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v, want ModelError after every tactic declined to be ErrNoTacticApplied", out.Err)
	}
}

func TestScriptedPrefersLoadOverMove(t *testing.T) {
	sys := build(t)
	sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
	_, _, role, _ := GroupOf(sys, sys.Component("C3"))
	role.Props().Set(PropBandwidth, 5e3)
	query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	out := compiled(t, query).Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Ops) != 1 || out.Ops[0].Kind != repair.OpAddServer {
		t.Fatalf("ops=%v — fixServerLoad should win", out.Ops)
	}
}

func TestScriptedSpareExhaustionFallsThrough(t *testing.T) {
	// No spares left: scripted fixServerLoad must decline (replicas
	// unchanged) and fixBandwidth must take over — the paper's phase-2
	// behaviour.
	sys := build(t)
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
	out := compiled(t, query).Execute(sys, violationFor(sys, "C3"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Ops) != 1 || out.Ops[0].Kind != repair.OpMoveClient {
		t.Fatalf("ops=%v — move should take over when spares are gone", out.Ops)
	}
}

func TestScriptedMatchesHandCodedAcrossScenarios(t *testing.T) {
	type scenario struct {
		name  string
		setup func(sys *model.System)
		query GroupQuery
	}
	sg2Query := func(s *model.System, cli *model.Component, minBW float64) (*model.Component, float64) {
		return s.Component("ServerGrp2"), 5e6
	}
	nilQuery := func(*model.System, *model.Component, float64) (*model.Component, float64) { return nil, 0 }
	scenarios := []scenario{
		{"overload", func(sys *model.System) {
			sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
		}, sg2Query},
		{"starved", func(sys *model.System) {
			_, _, role, _ := GroupOf(sys, sys.Component("C1"))
			role.Props().Set(PropBandwidth, 5e3)
		}, sg2Query},
		{"healthy", func(sys *model.System) {
			_, _, role, _ := GroupOf(sys, sys.Component("C1"))
			role.Props().Set(PropBandwidth, 5e6)
		}, sg2Query},
		{"starved-nowhere-to-go", func(sys *model.System) {
			_, _, role, _ := GroupOf(sys, sys.Component("C1"))
			role.Props().Set(PropBandwidth, 5e3)
		}, nilQuery},
		{"no-bandwidth-yet", func(sys *model.System) {}, sg2Query},
		{"overload-no-spare", func(sys *model.System) {
			if _, err := AddServer(repair.NewTxn(sys), sys.Component("ServerGrp1")); err != nil {
				t.Fatal(err)
			}
			sys.Component("ServerGrp1").Props().Set(PropLoad, 9.0)
			_, _, role, _ := GroupOf(sys, sys.Component("C1"))
			role.Props().Set(PropBandwidth, 5e3)
		}, sg2Query},
		{"starved-best-is-current", func(sys *model.System) {
			_, _, role, _ := GroupOf(sys, sys.Component("C1"))
			role.Props().Set(PropBandwidth, 5e3)
		}, func(s *model.System, _ *model.Component, _ float64) (*model.Component, float64) {
			return s.Component("ServerGrp1"), 5e6
		}},
	}
	for _, sc := range scenarios {
		handSys := build(t)
		sc.setup(handSys)
		hand := FixLatency(sc.query).Execute(handSys, violationFor(handSys, "C1"))

		scriptSys := build(t)
		sc.setup(scriptSys)
		script := compiled(t, sc.query).Execute(scriptSys, violationFor(scriptSys, "C1"))

		if (hand.Err == nil) != (script.Err == nil) ||
			errors.Is(hand.Err, repair.ErrNoTacticApplied) != errors.Is(script.Err, repair.ErrNoTacticApplied) {
			t.Fatalf("%s: hand err=%v script err=%v", sc.name, hand.Err, script.Err)
		}
		if hand.Err != nil {
			continue
		}
		if strings.Join(hand.Applied, ",") != strings.Join(script.Applied, ",") {
			t.Fatalf("%s: applied %v vs %v", sc.name, hand.Applied, script.Applied)
		}
		if len(hand.Ops) != len(script.Ops) {
			t.Fatalf("%s: ops %v vs %v", sc.name, hand.Ops, script.Ops)
		}
		for i := range hand.Ops {
			if hand.Ops[i] != script.Ops[i] {
				t.Fatalf("%s: op %d: %v vs %v", sc.name, i, hand.Ops[i], script.Ops[i])
			}
		}
		if !handSys.Equal(scriptSys) {
			t.Fatalf("%s: resulting models differ", sc.name)
		}
	}
}

func TestScriptOperatorSetComplete(t *testing.T) {
	ops := styleOps(nil)
	for _, m := range []string{"addServer", "move", "remove"} {
		if ops.Methods[m] == nil {
			t.Fatalf("method %s missing", m)
		}
	}
	for _, f := range []string{"roleOf", "groupOf", "hasSpare", "findGoodSGrp"} {
		if ops.Funcs[f] == nil {
			t.Fatalf("func %s missing", f)
		}
	}
	if _, err := CompileFixLatency(nil); err != nil {
		t.Fatal(err)
	}
}

// Binding the library compiled once per process costs a manager its operator
// set, function table and frames, 16 allocations; compiling it costs well
// over a hundred.
func TestBindingIsCheap(t *testing.T) {
	query := func(*model.System, *model.Component, float64) (*model.Component, float64) { return nil, 0 }
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := CompileFixLatency(query); err != nil {
			t.Fatal(err)
		}
	}); avg > 16 {
		t.Errorf("%v allocations to bind fixLatency, want at most 16", avg)
	}
}
