package script

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// testModel builds a one-client, two-group model with thresholds.
func testModel() *model.System {
	s := model.NewSystem("t", "ClientServerFam")
	s.Props().Set("maxLatency", 2.0)
	s.Props().Set("maxServerLoad", 6.0)
	s.Props().Set("minBandwidth", 10e3)
	g1 := s.AddComponent("G1", "ServerGroupT")
	g1.AddPort("provide", "ProvideT")
	g1.Props().Set("load", 1.0)
	g2 := s.AddComponent("G2", "ServerGroupT")
	g2.AddPort("provide", "ProvideT")
	g2.Props().Set("load", 0.0)
	c := s.AddComponent("C1", "ClientT")
	c.AddPort("request", "RequestT")
	c.Props().Set("averageLatency", 5.0)
	conn := s.AddConnector("G1Conn", "ReqConnT")
	conn.AddRole("server", "ServerRoleT")
	r := conn.AddRole("C1Role", "ClientRoleT")
	r.Props().Set("bandwidth", 5e3)
	_ = s.Attach(g1.Port("provide"), conn.Role("server"))
	_ = s.Attach(c.Port("request"), r)
	return s
}

func violation(s *model.System) constraint.Violation {
	inv := constraint.MustInvariant("latencyBound", "ClientT", "averageLatency <= maxLatency")
	vs := inv.Check(s, nil, true)
	if len(vs) != 1 {
		panic("want one violation")
	}
	return vs[0]
}

// bind compiles src with ops and binds its one strategy.
func bind(t *testing.T, src string, ops OperatorSet) *repair.Strategy {
	t.Helper()
	lib, err := Compile(src, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lib.byName {
		if d.Kind == "strategy" {
			strat, err := lib.Bind(d.Name, ops)
			if err != nil {
				t.Fatal(err)
			}
			return strat
		}
	}
	panic("Compile accepted a script without a strategy")
}

// run compiles src with ops and executes its strategy on the model.
func run(t *testing.T, src string, ops OperatorSet, s *model.System) repair.Record {
	t.Helper()
	return bind(t, src, ops).Execute(s, violation(s))
}

func TestCommitAndModelMutation(t *testing.T) {
	s := testModel()
	called := 0
	ops := OperatorSet{
		Methods: map[string]Method{
			"poke": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				called++
				ctx.Txn.SetProp(recv.Elem(), "poked", true)
				return nil
			},
		},
	}
	out := run(t, `
        strategy fix(cli : ClientT) = {
            cli.poke();
            commit repair;
        }`, ops, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if called != 1 {
		t.Fatalf("method called %d times", called)
	}
	if !s.Component("C1").Props().BoolOr("poked", false) {
		t.Fatal("mutation missing after commit")
	}
}

func TestNoCommitMeansNotApplied(t *testing.T) {
	s := testModel()
	out := run(t, `
        strategy fix(cli : ClientT) = {
            let x : float = 1 + 1;
        }`, OperatorSet{}, s)
	if !errors.Is(out.Err, repair.ErrNoTacticApplied) {
		t.Fatalf("err=%v", out.Err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	s := testModel()
	snap := s.Clone()
	ops := OperatorSet{
		Methods: map[string]Method{
			"poke": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				ctx.Txn.SetProp(recv.Elem(), "poked", true)
				return nil
			},
		},
	}
	out := run(t, `
        strategy fix(cli : ClientT) = {
            cli.poke();
            abort Unrepairable;
        }`, ops, s)
	if out.Err == nil || out.Err.Error() != "script:4: abort Unrepairable" {
		t.Fatalf("err=%v", out.Err)
	}
	if !s.Equal(snap) {
		t.Fatal("abort did not roll back")
	}
}

func TestIfElseAndLet(t *testing.T) {
	s := testModel()
	out := run(t, `
        strategy fix(cli : ClientT) = {
            let lat : float = cli.averageLatency;
            if (lat > maxLatency) { commit repair; }
            else { abort Unreachable; }
        }`, OperatorSet{}, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestForeachIteratesSelect(t *testing.T) {
	s := testModel()
	var poked []string
	ops := OperatorSet{
		Methods: map[string]Method{
			"mark": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				poked = append(poked, recv.Elem().Name())
				return nil
			},
		},
	}
	out := run(t, `
        strategy fix(cli : ClientT) = {
            foreach g in select x : ServerGroupT in self.Components | x.load >= 0 {
                g.mark();
            }
            commit repair;
        }`, ops, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(poked) != 2 || poked[0] != "G1" || poked[1] != "G2" {
		t.Fatalf("poked=%v", poked)
	}
}

func TestTacticCallAndReturn(t *testing.T) {
	s := testModel()
	out := run(t, `
        strategy fix(cli : ClientT) = {
            if (isBad(cli)) { commit repair; }
            else { abort NotBad; }
        }
        tactic isBad(c : ClientT) : boolean = {
            return c.averageLatency > maxLatency;
        }`, OperatorSet{}, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestStyleFuncsAvailable(t *testing.T) {
	s := testModel()
	ops := OperatorSet{
		Funcs: map[string]func([]constraint.Value) (constraint.Value, error){
			"answer": func([]constraint.Value) (constraint.Value, error) {
				return constraint.Num(42), nil
			},
		},
	}
	out := run(t, `
        strategy fix(cli : ClientT) = {
            if (answer() == 42) { commit repair; }
        }`, ops, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`strategy = { }`,
		`strategy f() = { let ; }`,
		`strategy f() = { if true { } }`, // missing parens
		`strategy f() = { foreach in x { } }`,
		`strategy f() = { commit repair }`, // missing semicolon
		`strategy f() = { abort; }`,
		`strategy f() = { x.y(; }`,
		`strategy f() = { 5; }`,
		`tactic only() : boolean = { return true; }`, // no strategy
		`strategy f() = { unterminated`,
		`strategy f() = { x.y(a b); }`,       // arguments need the comma
		`strategy f() = { let s = "a\qb"; }`, // an escape strconv.Quote never writes
	}
	for _, src := range bad {
		if _, err := Compile(src, OperatorSet{}); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

// A type annotation, on a parameter, a result or a let, is a type name; it
// is parsed, not checked, but a number or a string there is an error. A let
// may also name a set type.
func TestTypeAnnotationsAreTypeNames(t *testing.T) {
	for src, want := range map[string]string{
		"strategy s(x : 5) = { commit repair; }":         `script:1: expected type after ':', found "5"`,
		"strategy s(x) : 7 = { commit repair; }":         `script:1: expected type after ':', found "7"`,
		"strategy s(x) = {\n  let v : 5 = 1;\n}":         `script:2: expected type after ':', found "5"`,
		`strategy s(x : "str") = { commit repair; }`:     `script:1: expected type after ':', found "str"`,
		"strategy s(x) = { let v : set{5} = x; }":        `script:1: expected type, found "5"`,
		"strategy s(x) = { let v : set{T U} = x; }":      `script:1: expected "}", found "U"`,
		"strategy s(x) = { let v : set{} = x; }":         `script:1: expected type, found "}"`,
		"strategy s(x : ClientT) : T = { let v : = 1; }": `script:1: expected type after ':', found "="`,
	} {
		if _, err := ParseDefs(src); err == nil || err.Error() != want {
			t.Errorf("ParseDefs(%q): error %v, want %q", src, err, want)
		}
	}
	if _, err := ParseDefs("tactic t(x : ClientT, n) : boolean = { let v : set{ClientT} = x; let w : float = 1; return true; }"); err != nil {
		t.Error(err)
	}
}

// Every list of the script grammar — parameters, the arguments of a call
// statement and of a call inside an expression — follows one rule: items
// separated by commas, no comma after the last.
func TestOneListRule(t *testing.T) {
	for src, want := range map[string]string{
		"tactic t(a b) = { return true; }":       `script:1: expected ")", found "b"`,
		"tactic t(a,) = { return true; }":        `script:1: expected parameter of t, found ")"`,
		"tactic t(,) = { return true; }":         `script:1: expected parameter of t, found ","`,
		"strategy f(c) = {\n  foo(1,);\n}":       `script:2: unexpected ")"`,
		"strategy f(c) = {\n  x.foo(1,);\n}":     `script:2: unexpected ")"`,
		"strategy f(c) = {\n  let y = f(1,);\n}": `script:2: unexpected ")"`,
		"strategy f(c) = { foo(1 2); }":          `script:1: expected ")", found "2"`,
		"strategy f(c) = { let y = f(1 2); }":    `script:1: expected ")", found "2"`,
	} {
		if _, err := ParseDefs(src); err == nil || err.Error() != want {
			t.Errorf("ParseDefs(%q): error %v, want %q", src, err, want)
		}
	}
	if _, err := ParseDefs("tactic t(a, b) = { foo(); x.foo(a, b); let y = f(a, g()); return true; }"); err != nil {
		t.Error(err)
	}
}

// An error names the line it was found on, whichever layer found it.
func TestParseErrorsCarryTheLine(t *testing.T) {
	for name, src := range map[string]string{
		"statement":  "strategy f() = {\n  let x = 1;\n  abort;\n}",
		"expression": "strategy f() = {\n  let x = 1;\n  let y = (1 + ;\n}",
		"token":      "strategy f() = {\n  // comment\n  let s = \"open;\n}",
	} {
		_, err := ParseDefs(src)
		if err == nil || !strings.HasPrefix(err.Error(), "script:3: ") {
			t.Errorf("%s: error %v, want it to start with script:3:", name, err)
		}
	}
}

// Statement nesting is bounded at constraint.MaxNesting, whichever statement
// recurses, and reported at its line. The stack limit is lowered so that an
// unbounded parser dies here on a stack overflow: the if/foreach rows need
// about 64 MB of stack unbounded and stay under 16 MB bounded.
func TestStatementNestingIsBounded(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	deep := 8 * constraint.MaxNesting
	for name, src := range map[string]string{
		"if":      "strategy f() = {\n" + strings.Repeat("if (x) {", deep),
		"foreach": "strategy f() = {\n" + strings.Repeat("foreach g in x {", deep),
		"else if": "strategy f() = {\nif (x) { }" + strings.Repeat(" else if (x) { }", 2*constraint.MaxNesting) + "\n}",
	} {
		_, err := ParseDefs(src)
		if want := fmt.Sprintf("script:2: statements nested deeper than %d", constraint.MaxNesting); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
	// ... and the bound is far from any script a person writes.
	if _, err := ParseDefs("strategy f() = {" + strings.Repeat("if (x) {", 100) + strings.Repeat("}", 101)); err != nil {
		t.Error(err)
	}
}

// Expressions are parsed on the script's own tokens, so a comment or an
// escaped quote inside one reads as it does anywhere else in the script.
func TestCommentsAndEscapesInsideExpressions(t *testing.T) {
	s := testModel()
	var noted []string
	ops := OperatorSet{
		Methods: map[string]Method{
			"note": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				noted = append(noted, recv.Elem().Name()+"="+args[0].Str())
				return nil
			},
		},
	}
	out := run(t, `
        strategy fix(cli : ClientT) = {
            let two = 1 + // one
                1;
            foreach g in select x : ServerGroupT in self.Components | // every group
                    x.load > 0 {
                g.note("a\"b\\c", two); // not a comment: "//"
            }
            if (isTwo(two)) { commit repair; }
        }
        tactic isTwo(n) : boolean = {
            return n == // the right operand is on the next line
                2;
        }`, ops, s)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(noted) != 1 || noted[0] != `G1=a"b\c` {
		t.Fatalf("noted=%q", noted)
	}
}

func TestRuntimeErrors(t *testing.T) {
	s := testModel()
	cases := map[string]string{
		"unknown receiver": `strategy f(c : ClientT) = { ghost.move(c); }`,
		"foreach non-set":  `strategy f(c : ClientT) = { foreach x in 5 { commit repair; } }`,
		"bad condition":    `strategy f(c : ClientT) = { if (5) { commit repair; } }`,
		"recursion":        `strategy f(c : ClientT) = { if (t(c)) { commit repair; } } tactic t(c) = { return t(c); }`,
	}
	ops := OperatorSet{Methods: map[string]Method{"move": func(*repair.Context, constraint.Value, []constraint.Value) error { return nil }}}
	for name, src := range cases {
		out := run(t, src, ops, s)
		if out.Err == nil || errors.Is(out.Err, repair.ErrNoTacticApplied) {
			t.Errorf("%s: expected runtime error, got %v", name, out.Err)
		}
	}
}

// A call a run could only fail on is rejected by Compile, at its line.
func TestCompileChecksCalls(t *testing.T) {
	ops := OperatorSet{
		Methods: map[string]Method{"poke": func(*repair.Context, constraint.Value, []constraint.Value) error { return nil }},
		Funcs:   map[string]func([]constraint.Value) (constraint.Value, error){"answer": func([]constraint.Value) (constraint.Value, error) { return constraint.Num(42), nil }},
	}
	const tactic = "\ntactic t(a, b) : boolean = { return true; }"
	for src, want := range map[string]string{
		"strategy f(c) = {\n  c.nosuch();\n}":                                                                              `script:2: unknown method "nosuch"`,
		"strategy f(c) = {\n  nosuch(c);\n}":                                                                               `script:2: unknown procedure "nosuch"`,
		"strategy f(c) = {\n  if (true) {\n    tt(c, c);\n  }\n}" + tactic:                                                 `script:3: unknown procedure "tt"`,
		"strategy f(c) = {\n  t(c);\n}" + tactic:                                                                           "script:2: tactic t takes 2 arguments, not 1",
		"strategy f(c) = {\n  if (t(c, c, c)) { commit repair; }\n}" + tactic:                                              "script:2: tactic t takes 2 arguments, not 3",
		"strategy f(c) = {\n\n  let s = select x in self.Components | t(x);\n}" + tactic:                                   "script:3: tactic t takes 2 arguments, not 1",
		"strategy f(c) = { commit repair; }\ntactic u() = {\n  foreach g in self.Components { g.poke(t(g)); }\n}" + tactic: "script:3: tactic t takes 2 arguments, not 1",
		"\nstrategy f(a, b) = { commit repair; }":                                                                          "script:2: strategy f takes one parameter, the violation subject, not 2",
		"strategy f(c) = { commit repair; }\ntactic f() = { return true; }":                                                `script:2: duplicate definition of "f"`,
		"strategy f(c) = {\n  let c = 1;\n}":                                                                               "script:2: let variable c would rebind a parameter",
		"strategy f(c) = { commit repair; }" + tactic + "\ntactic u(g) = {\n  foreach g in self.Components { }\n}":         "script:4: foreach variable g would rebind a parameter",
		"strategy f(c) = {\n  foreach it in self.Components { }\n}":                                                        "script:2: foreach variable it would rebind a parameter",
	} {
		if _, err := Compile(src, ops); err == nil || err.Error() != want {
			t.Errorf("Compile(%q): error %v, want %q", src, err, want)
		}
	}
	// Procedures resolve to tactics and style funcs alike.
	if _, err := Compile("strategy f(c) = { t(c, c); answer(); commit repair; }"+tactic, ops); err != nil {
		t.Error(err)
	}
}

func TestTwoParamStrategyRejected(t *testing.T) {
	_, err := Compile(`strategy f(a : ClientT, b : ClientT) = { commit repair; }`, OperatorSet{})
	if err == nil || !strings.HasPrefix(err.Error(), "script:1: ") {
		t.Fatalf("two-parameter strategy: error %v, want a script:1: compile error", err)
	}
}

// Only `abort ModelError` with no tactic applied yet is the engine's
// no-applicable-tactic outcome (the paper's escalation case); after a tactic
// applied it is a failure like any other abort. Applied names the tactics
// that returned true, in call order. A strategy sequences its own tactics
// (§3.2): an if / else if chain applies the first that succeeds, and
// statements in a row run through all of them.
func TestModelErrorAndApplied(t *testing.T) {
	const tactics = `
        tactic yes(c) : boolean = { return true; }
        tactic no(c) : boolean = { return false; }
        tactic commits(c) : boolean = { commit repair; }`
	for src, want := range map[string]string{
		`strategy f(c) = { if (no(c)) { commit repair; } else { abort ModelError; } }`:    "err=repair: no applicable tactic",
		`strategy f(c) = { if (yes(c)) { abort ModelError; } }`:                           "err=script:1: abort ModelError",
		`strategy f(c) = { if (no(c) or commits(c)) { if (yes(c)) { commit repair; } } }`: "applied=[commits yes]",
		`strategy f(c) = { commits(c); no(c); return yes(c) and no(c); }`:                 "err=repair: no applicable tactic",
		`strategy f(c) = { commits(c); return true; }`:                                    "applied=[commits]",

		// First success, and all of them in call order.
		`strategy f(c) = { if (no(c)) { commit repair; } else if (yes(c)) { commit repair; } else if (commits(c)) { commit repair; } }`: "applied=[yes]",
		`strategy f(c) = { yes(c); no(c); commits(c); commit repair; }`:                                                                 "applied=[yes commits]",
	} {
		out := run(t, src+tactics, OperatorSet{}, testModel())
		got := fmt.Sprintf("applied=%v", out.Applied)
		if out.Err != nil {
			got = "err=" + out.Err.Error()
		}
		if got != want {
			t.Errorf("%s: %s, want %s", src, got, want)
		}
	}
}
