package repair

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/sim"
)

func small() *model.System {
	s := model.NewSystem("s", "Fam")
	s.Props().Set("maxLatency", 2.0)
	c := s.AddComponent("cli", "ClientT")
	c.AddPort("request", "RequestT")
	c.Props().Set("averageLatency", 5.0)
	g := s.AddComponent("grp", "ServerGroupT")
	g.AddPort("provide", "ProvideT")
	conn := s.AddConnector("conn", "ReqConnT")
	r := conn.AddRole("cliRole", "ClientRoleT")
	sr := conn.AddRole("server", "ServerRoleT")
	_ = s.Attach(c.Port("request"), r)
	_ = s.Attach(g.Port("provide"), sr)
	return s
}

func TestTxnSetPropRollback(t *testing.T) {
	s := small()
	snap := s.Clone()
	txn := NewTxn(s)
	txn.SetProp(s.Component("cli"), "averageLatency", 1.0)
	txn.SetProp(s.Component("cli"), "newProp", 7.0)
	if v, _ := s.Component("cli").Props().Float("averageLatency"); v != 1.0 {
		t.Fatal("mutation not applied")
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(snap) {
		t.Fatal("rollback did not restore the model")
	}
}

func TestTxnStructuralRollback(t *testing.T) {
	s := small()
	snap := s.Clone()
	txn := NewTxn(s)
	// Perform a composite change like MoveClient does.
	cli := s.Component("cli")
	conn := s.Connector("conn")
	role := conn.Role("cliRole")
	if err := txn.Detach(s, cli.Port("request"), role); err != nil {
		t.Fatal(err)
	}
	if err := txn.RemoveRole(conn, "cliRole"); err != nil {
		t.Fatal(err)
	}
	conn2, err := txn.AddComponent(s, "grp2", "ServerGroupT")
	if err != nil {
		t.Fatal(err)
	}
	_ = conn2
	nr, err := txn.AddRole(conn, "cliRole2", "ClientRoleT")
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Attach(s, cli.Port("request"), nr); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(snap) {
		t.Fatal("structural rollback did not restore the model")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnDoubleAbortIsNoop(t *testing.T) {
	s := small()
	txn := NewTxn(s)
	txn.SetProp(s.Component("cli"), "x", 1.0)
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
}

func latencyViolation(s *model.System) constraint.Violation {
	inv := constraint.MustInvariant("latencyBound", "ClientT", "averageLatency <= maxLatency")
	vs := inv.Check(s, nil, true)
	if len(vs) != 1 {
		panic(fmt.Sprintf("expected 1 violation, got %d", len(vs)))
	}
	return vs[0]
}

func TestStrategyFirstSuccess(t *testing.T) {
	s := small()
	ran := []string{}
	strat := &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{
			{Name: "a", Script: func(ctx *Context) (bool, error) { ran = append(ran, "a"); return false, nil }},
			{Name: "b", Script: func(ctx *Context) (bool, error) {
				ran = append(ran, "b")
				ctx.Txn.SetProp(ctx.Sys.Component("cli"), "averageLatency", 0.5)
				return true, nil
			}},
			{Name: "c", Script: func(ctx *Context) (bool, error) { ran = append(ran, "c"); return true, nil }},
		},
	}
	out := strat.Execute(s, latencyViolation(s))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "b" {
		t.Fatalf("ran=%v, want [a b]", ran)
	}
	if len(out.Applied) != 1 || out.Applied[0] != "b" {
		t.Fatalf("applied=%v", out.Applied)
	}
	if v, _ := s.Component("cli").Props().Float("averageLatency"); v != 0.5 {
		t.Fatal("committed change missing")
	}
}

func TestStrategyTryAll(t *testing.T) {
	s := small()
	strat := &Strategy{
		Name:   "fix",
		Policy: TryAll,
		Tactics: []*Tactic{
			{Name: "a", Script: func(ctx *Context) (bool, error) {
				ctx.Txn.SetProp(ctx.Sys, "pa", 1.0)
				return true, nil
			}},
			{Name: "b", Script: func(ctx *Context) (bool, error) {
				ctx.Txn.SetProp(ctx.Sys, "pb", 2.0)
				return true, nil
			}},
		},
	}
	out := strat.Execute(s, latencyViolation(s))
	if out.Err != nil || len(out.Applied) != 2 {
		t.Fatalf("outcome %+v", out)
	}
	if !s.Props().Has("pa") || !s.Props().Has("pb") {
		t.Fatal("both tactics should have committed")
	}
}

func TestStrategyAbortRollsBack(t *testing.T) {
	s := small()
	snap := s.Clone()
	strat := &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{
			{Name: "a", Script: func(ctx *Context) (bool, error) {
				ctx.Txn.SetProp(ctx.Sys.Component("cli"), "averageLatency", 0.1)
				return false, errors.New("model error")
			}},
		},
	}
	out := strat.Execute(s, latencyViolation(s))
	if out.Err == nil {
		t.Fatal("want error")
	}
	if !s.Equal(snap) {
		t.Fatal("abort did not roll back")
	}
}

func TestStrategyNoTacticApplied(t *testing.T) {
	s := small()
	strat := &Strategy{
		Name:    "fix",
		Policy:  FirstSuccess,
		Tactics: []*Tactic{{Name: "a", Script: func(ctx *Context) (bool, error) { return false, nil }}},
	}
	out := strat.Execute(s, latencyViolation(s))
	if !errors.Is(out.Err, ErrNoTacticApplied) {
		t.Fatalf("err=%v", out.Err)
	}
}

func TestEngineTranslatesOps(t *testing.T) {
	s := small()
	var applied []Op
	eng := NewEngine(s, TranslatorFunc(func(op Op) error {
		applied = append(applied, op)
		return nil
	}))
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			ctx.Txn.SetProp(ctx.Sys.Component("cli"), "averageLatency", 0.5)
			ctx.Txn.Record(Op{Kind: OpMoveClient, Client: "cli", Group: "grp"})
			return true, nil
		}}},
	})
	var observed []*Record
	eng.Observer = func(rec *Record, _ constraint.Violation, now float64) {
		if now != 10 {
			t.Errorf("observer called at %v", now)
		}
		observed = append(observed, rec)
	}
	rec := eng.HandleViolation(latencyViolation(s), 10)
	if rec == nil || rec.Err != nil {
		t.Fatalf("record %+v", rec)
	}
	if len(applied) != 1 || applied[0].Kind != OpMoveClient {
		t.Fatalf("applied=%v", applied)
	}
	if len(observed) != 1 || observed[0] != rec || len(rec.Ops) != 1 || rec.Ops[0] != applied[0] {
		t.Fatalf("observer saw %d records, want the returned one with the translated op", len(observed))
	}
}

// A committed record's Applied and Ops are its own: the engine's next attempt
// rewrites the record and reuses the transaction, but not them.
func TestCommittedRecordOutlivesTheNextAttempt(t *testing.T) {
	s := small()
	eng := NewEngine(s, nil)
	next := 0
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			next++
			ctx.Txn.Record(Op{Kind: OpAddServer, Group: "grp", Server: fmt.Sprint(next)})
			return next < 3, nil
		}}},
	})
	v := latencyViolation(s)
	first := *eng.HandleViolation(v, 0)
	second := eng.HandleViolation(v, 1)
	if first.Err != nil || second.Err != nil || first.Ops[0].Server != "1" || second.Ops[0].Server != "2" ||
		first.Applied[0] != "t" {
		t.Fatalf("first %+v, second %+v", first, *second)
	}
	ops := second.Ops
	if third := eng.HandleViolation(v, 2); !errors.Is(third.Err, ErrNoTacticApplied) || third.Ops != nil || third.Applied != nil {
		t.Fatalf("declined attempt: %+v", *third)
	}
	if len(ops) != 1 || ops[0].Server != "2" {
		t.Fatalf("the committed ops changed under a later attempt: %v", ops)
	}
}

func TestEngineTranslationFailureRollsBack(t *testing.T) {
	s := small()
	snap := s.Clone()
	eng := NewEngine(s, TranslatorFunc(func(op Op) error { return errors.New("rmi failure") }))
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			ctx.Txn.SetProp(ctx.Sys.Component("cli"), "averageLatency", 0.5)
			ctx.Txn.Record(Op{Kind: OpAddServer, Group: "grp", Server: "x"})
			return true, nil
		}}},
	})
	rec := eng.HandleViolation(latencyViolation(s), 0)
	if rec.Err == nil {
		t.Fatal("want translation error")
	}
	if !s.Equal(snap) {
		t.Fatal("failed translation must roll the model back")
	}
}

func TestEngineCooldownSuppresses(t *testing.T) {
	s := small()
	count := 0
	eng := NewEngine(s, nil)
	eng.SettleTime = 30
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			count++
			return true, nil
		}}},
	})
	v := latencyViolation(s)
	if eng.HandleViolation(v, 0) == nil {
		t.Fatal("first repair should run")
	}
	if eng.HandleViolation(v, 10) != nil {
		t.Fatal("repair inside settle window should be suppressed")
	}
	if eng.HandleViolation(v, 31) == nil {
		t.Fatal("repair after settle window should run")
	}
	if count != 2 {
		t.Fatalf("count=%d", count)
	}
}

func TestEngineOscillationDamping(t *testing.T) {
	s := small()
	eng := NewEngine(s, nil)
	eng.SettleTime = 10
	eng.OscillationWindow = 100
	eng.OscillationMoves = 3
	eng.DampFactor = 10
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			ctx.Txn.Record(Op{Kind: OpMoveClient, Client: "cli", Group: "grp"})
			return true, nil
		}}},
	})
	v := latencyViolation(s)
	times := []float64{0, 20, 40}
	for _, at := range times {
		rec := eng.HandleViolation(v, at)
		if rec == nil {
			t.Fatalf("repair at %v suppressed unexpectedly", at)
		}
		if at == 40 && !rec.Damped {
			t.Fatal("third move within window should be damped")
		}
	}
	// Damped cooldown = SettleTime * DampFactor = 100s from t=40.
	if eng.HandleViolation(v, 60) != nil {
		t.Fatal("damped client should be suppressed at t=60")
	}
	if eng.HandleViolation(v, 141) == nil {
		t.Fatal("damped cooldown should expire by t=141")
	}
}

func TestEngineAlertOnNoTactic(t *testing.T) {
	s := small()
	alerted := 0
	eng := NewEngine(s, nil)
	eng.AlertFn = func(v constraint.Violation, reason string) { alerted++ }
	eng.Bind("latencyBound", &Strategy{
		Name:    "fix",
		Policy:  FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) { return false, nil }}},
	})
	rec := eng.HandleViolation(latencyViolation(s), 0)
	if !errors.Is(rec.Err, ErrNoTacticApplied) {
		t.Fatalf("err=%v", rec.Err)
	}
	if alerted != 1 || eng.Alerts() != 1 {
		t.Fatalf("alerted=%d", alerted)
	}
}

func TestEngineUnboundInvariantIgnored(t *testing.T) {
	s := small()
	eng := NewEngine(s, nil)
	if rec := eng.HandleViolation(latencyViolation(s), 0); rec != nil {
		t.Fatal("unbound invariant should be ignored")
	}
}

func TestHandleAllStopsAfterSuccess(t *testing.T) {
	s := small()
	c2 := s.AddComponent("cli2", "ClientT")
	c2.AddPort("request", "RequestT")
	c2.Props().Set("averageLatency", 9.0)
	inv := constraint.MustInvariant("latencyBound", "ClientT", "averageLatency <= maxLatency")
	vs := inv.Check(s, nil, true)
	if len(vs) != 2 {
		t.Fatalf("violations=%d", len(vs))
	}
	fixed := []string{}
	declines := map[string]bool{"cli": true}
	eng := NewEngine(s, nil)
	eng.Bind("latencyBound", &Strategy{
		Name:   "fix",
		Policy: FirstSuccess,
		Tactics: []*Tactic{{Name: "t", Script: func(ctx *Context) (bool, error) {
			fixed = append(fixed, ctx.Violation.Subject.Name())
			return !declines[ctx.Violation.Subject.Name()], nil
		}}},
	})
	// The first subject's attempt declines; the second commits and is the
	// record returned.
	if rec := eng.HandleAll(vs, 0); rec == nil || rec.Subject != "cli2" || len(fixed) != 2 {
		t.Fatalf("rec=%+v fixed=%v — want cli2's committed record after cli declined", rec, fixed)
	}
	fixed, declines = nil, map[string]bool{}
	if rec := eng.HandleAll(vs, 1); rec == nil || rec.Subject != "cli" || len(fixed) != 1 {
		t.Fatalf("rec=%+v fixed=%v — should stop after first success", rec, fixed)
	}
	declines = map[string]bool{"cli": true, "cli2": true}
	if rec := eng.HandleAll(vs, 2); rec != nil {
		t.Fatalf("nothing committed, got %+v", rec)
	}
}

// Property: any random interleaving of transactional mutations rolls back to
// an Equal model.
func TestTxnRollbackProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := small()
		snap := s.Clone()
		txn := NewTxn(s)
		for i := 0; i < 1+rng.Intn(15); i++ {
			switch rng.Intn(5) {
			case 0:
				txn.SetProp(s.Component("cli"), "averageLatency", rng.Float64()*10)
			case 1:
				name := fmt.Sprintf("c%d", rng.Intn(1000))
				if s.Component(name) == nil {
					_, _ = txn.AddComponent(s, name, "ClientT")
				}
			case 2:
				conn := s.Connector("conn")
				name := fmt.Sprintf("r%d", rng.Intn(1000))
				if conn.Role(name) == nil {
					_, _ = txn.AddRole(conn, name, "ClientRoleT")
				}
			case 3:
				txn.SetProp(s, fmt.Sprintf("p%d", rng.Intn(5)), rng.Float64())
			case 4:
				// detach+reattach the client
				cli := s.Component("cli")
				role := s.Connector("conn").Role("cliRole")
				if role != nil && s.Attached(cli.Port("request"), role) {
					_ = txn.Detach(s, cli.Port("request"), role)
				} else if role != nil {
					_ = txn.Attach(s, cli.Port("request"), role)
				}
			}
		}
		if err := txn.Abort(); err != nil {
			return false
		}
		return s.Equal(snap) && s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
