package constraint

import (
	"strings"
	"testing"
	"testing/quick"

	"archadapt/internal/model"
	"archadapt/internal/sim"
)

// testSystem builds a small client/server system with properties set.
func testSystem() *model.System {
	s := model.NewSystem("sys", "ClientServerFam")
	s.Props().Set("maxLatency", 2.0)
	s.Props().Set("maxServerLoad", 6.0)
	s.Props().Set("minBandwidth", 10000.0)

	g1 := s.AddComponent("ServerGrp1", "ServerGroupT")
	g1.AddPort("provide", "ProvideT")
	g1.Props().Set("load", 8.0) // overloaded
	g2 := s.AddComponent("ServerGrp2", "ServerGroupT")
	g2.AddPort("provide", "ProvideT")
	g2.Props().Set("load", 1.0)

	c1 := s.AddComponent("User1", "ClientT")
	c1.AddPort("request", "RequestT")
	c1.Props().Set("averageLatency", 3.5) // violating
	c2 := s.AddComponent("User2", "ClientT")
	c2.AddPort("request", "RequestT")
	c2.Props().Set("averageLatency", 0.5)

	conn := s.AddConnector("Req1", "ReqConnT")
	conn.AddRole("server", "ServerRoleT")
	r1 := conn.AddRole("cli1", "ClientRoleT")
	r1.Props().Set("bandwidth", 5000.0) // below minBandwidth
	r2 := conn.AddRole("cli2", "ClientRoleT")
	r2.Props().Set("bandwidth", 5e6)
	_ = s.Attach(g1.Port("provide"), conn.Role("server"))
	_ = s.Attach(c1.Port("request"), r1)
	_ = s.Attach(c2.Port("request"), r2)
	return s
}

func eval(t *testing.T, src string, env *Env) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmeticAndPrecedence(t *testing.T) {
	env := NewEnv(nil)
	cases := map[string]float64{
		"1 + 2 * 3":   7,
		"(1 + 2) * 3": 9,
		"10 / 4":      2.5,
		"2 - 3 - 4":   -5,
		"-2 * 3":      -6,
		"1.5e2 + 0.5": 150.5,
		// A comment runs to the end of its line on every surface.
		"1 + // one\n 2": 3,
	}
	for src, want := range cases {
		if v := eval(t, src, env); v.Kind() != KNum || v.Num() != want {
			t.Errorf("%q = %s, want %v", src, v, want)
		}
	}
}

func TestComparisonsAndBooleans(t *testing.T) {
	env := NewEnv(nil)
	cases := map[string]bool{
		"1 < 2":             true,
		"2 <= 2":            true,
		"3 > 4":             false,
		"1 == 1 and 2 == 2": true,
		"1 == 2 or 2 == 2":  true,
		"not (1 == 2)":      true,
		"!(1 == 1)":         false,
		`"a" == "a"`:        true,
		`"a" != "b"`:        true,
		"true and false":    false,
		"nil == nil":        true,
		// Escapes are read by the rule that inverts what Value.String writes:
		// the left literal spells the tab, the right one holds it raw.
		"\"a\\tb\" == \"a\tb\"":   true,
		`"\"\\\u00e9" == "\"\\é"`: true,
	}
	for src, want := range cases {
		if v := eval(t, src, env); v.Kind() != KBool || v.Bool() != want {
			t.Errorf("%q = %s, want %v", src, v, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// `or` must not evaluate the right side when left is true — the right
	// side here would be an unbound-identifier error.
	env := NewEnv(nil)
	if v := eval(t, "true or undefinedName", env); !v.Bool() {
		t.Fatal("short-circuit or failed")
	}
	if v := eval(t, "false and undefinedName", env); v.Bool() {
		t.Fatal("short-circuit and failed")
	}
}

func TestPropertyRefs(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	if v := eval(t, "self.maxLatency", env); v.Num() != 2.0 {
		t.Fatalf("self.maxLatency = %s", v)
	}
	env.Bind("cli", Elem(s.Component("User1")))
	if v := eval(t, "cli.averageLatency", env); v.Num() != 3.5 {
		t.Fatalf("cli.averageLatency = %s", v)
	}
	if v := eval(t, "cli.name", env); v.Str() != "User1" {
		t.Fatalf("cli.name = %s", v)
	}
	if v := eval(t, "cli.type", env); v.Str() != "ClientT" {
		t.Fatalf("cli.type = %s", v)
	}
}

func TestImplicitItResolution(t *testing.T) {
	s := testSystem()
	env := NewEnv(s).Bind("it", Elem(s.Component("User1")))
	// averageLatency comes from `it`, maxLatency falls through to the system.
	if v := eval(t, "averageLatency <= maxLatency", env); v.Bool() {
		t.Fatal("User1 violates the latency bound; expression said otherwise")
	}
	env2 := NewEnv(s).Bind("it", Elem(s.Component("User2")))
	if v := eval(t, "averageLatency <= maxLatency", env2); !v.Bool() {
		t.Fatal("User2 satisfies the latency bound; expression said otherwise")
	}
}

func TestSelectAndSize(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	v := eval(t, "select g : ServerGroupT in self.Components | g.load > maxServerLoad", env)
	if v.Kind() != KSet || len(v.Set()) != 1 || v.Set()[0].Elem().Name() != "ServerGrp1" {
		t.Fatalf("select = %s", v)
	}
	n := eval(t, "size(select g : ServerGroupT in self.Components | g.load > maxServerLoad)", env)
	if n.Num() != 1 {
		t.Fatalf("size = %s", n)
	}
}

func TestSelectOneDeterministic(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	v := eval(t, "select one c : ClientT in self.Components | c.averageLatency > 0", env)
	if v.Kind() != KElem || v.Elem().Name() != "User1" {
		t.Fatalf("select one = %s, want User1 (name order)", v)
	}
	nilv := eval(t, "select one c : ClientT in self.Components | c.averageLatency > 100", env)
	if nilv.Kind() != KNil {
		t.Fatalf("empty select one = %s, want nil", nilv)
	}
}

func TestExistsForall(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	if v := eval(t, "exists c : ClientT in self.Components | c.averageLatency > maxLatency", env); !v.Bool() {
		t.Fatal("exists should find User1")
	}
	if v := eval(t, "forall c : ClientT in self.Components | c.averageLatency <= maxLatency", env); v.Bool() {
		t.Fatal("forall should fail on User1")
	}
	if v := eval(t, "forall g : ServerGroupT in self.Components | g.load > 0", env); !v.Bool() {
		t.Fatal("forall over groups should hold")
	}
}

func TestConnectedAttachedFunctions(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	env.Bind("cli", Elem(s.Component("User1")))
	env.Bind("grp", Elem(s.Component("ServerGrp1")))
	env.Bind("grp2", Elem(s.Component("ServerGrp2")))
	if v := eval(t, "connected(cli, grp)", env); !v.Bool() {
		t.Fatal("connected(cli, grp)")
	}
	if v := eval(t, "connected(cli, grp2)", env); v.Bool() {
		t.Fatal("connected(cli, grp2) should be false")
	}
	// Figure 5 line 20 form, inside a quantifier.
	v := eval(t, "select g : ServerGroupT in self.Components | connected(g, cli) and g.load > maxServerLoad", env)
	if len(v.Set()) != 1 {
		t.Fatalf("overloaded groups connected to cli = %s", v)
	}
	env.Bind("p", Elem(s.Component("User1").Port("request")))
	env.Bind("r", Elem(s.Connector("Req1").Role("cli1")))
	if v := eval(t, "attached(p, r)", env); !v.Bool() {
		t.Fatal("attached(p, r)")
	}
	if v := eval(t, "attached(r, p)", env); !v.Bool() {
		t.Fatal("attached should accept either order")
	}
	// exists over ports, as in Figure 5 lines 7-8.
	env.Bind("badRole", Elem(s.Connector("Req1").Role("cli1")))
	if v := eval(t, "exists p : RequestT in cli.Ports | attached(p, badRole)", env); !v.Bool() {
		t.Fatal("Figure 5 exists-form failed")
	}
}

func TestCustomFunction(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	env.Funcs["findGoodSGrp"] = func(args []Value) (Value, error) {
		return Elem(s.Component("ServerGrp2")), nil
	}
	env.Bind("cli", Elem(s.Component("User1")))
	if v := eval(t, "findGoodSGrp(cli, minBandwidth) != nil", env); !v.Bool() {
		t.Fatal("custom function")
	}
}

func TestEvalErrors(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	bad := []string{
		"undefinedVar + 1",
		`self.noSuchProp`,
		`1 < "a"`,
		"1 / 0",
		"size(1)",
		"connected(1, 2)",
		"unknownFn()",
		"exists x in 5 | true",
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := Eval(e, env); err == nil {
			t.Errorf("%q should fail to evaluate", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1",
		"a = b",
		"exists | x",
		"select one in x | y",
		"a..b",
		`"unterminated`,
		"1 2",
		"@",
		`"a\qb"`,    // an escape strconv.Quote never writes
		"\"a\nb\"",  // raw newline in a string
		"x == // 1", // the comment takes the right operand
		"1 + ; 2",   // punctuation of the surfaces that embed expressions
		"1e999",     // out of float64 range
		"a.in",      // a keyword names nothing
		// Nesting is bounded, whichever production recurses.
		strings.Repeat("(", 2*MaxNesting),
		strings.Repeat("not ", 2*MaxNesting) + "x",
		strings.Repeat("-", 2*MaxNesting) + "1",
		strings.Repeat("f(", 2*MaxNesting),
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%.40q should fail to parse", src)
		}
	}
	// ... and the bound is far from any expression a person writes.
	deep := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if _, err := Parse(deep); err != nil {
		t.Error(err)
	}
}

func TestInvariantScopedCheck(t *testing.T) {
	s := testSystem()
	reg := NewRegistry()
	reg.Add(MustInvariant("latency", "ClientT", "averageLatency <= maxLatency"))
	reg.Add(MustInvariant("bandwidth", "ClientRoleT", "bandwidth >= minBandwidth"))
	reg.Add(MustInvariant("load", "ServerGroupT", "load <= maxServerLoad"))
	vs := reg.CheckAll(s)
	if len(vs) != 3 {
		t.Fatalf("violations=%d (%v), want 3", len(vs), vs)
	}
	subjects := map[string]bool{}
	for _, v := range vs {
		subjects[v.Subject.Name()] = true
	}
	for _, want := range []string{"User1", "cli1", "ServerGrp1"} {
		if !subjects[want] {
			t.Errorf("missing violation subject %s (got %v)", want, vs)
		}
	}
}

func TestInvariantSkipIncomplete(t *testing.T) {
	s := testSystem()
	// User3 has no averageLatency property yet (gauge not reporting).
	c := s.AddComponent("User3", "ClientT")
	c.AddPort("request", "RequestT")
	reg := NewRegistry()
	reg.Add(MustInvariant("latency", "ClientT", "averageLatency <= maxLatency"))
	vs := reg.CheckAll(s)
	for _, v := range vs {
		if v.Subject.Name() == "User3" {
			t.Fatal("incomplete element should be skipped")
		}
	}
	reg.SkipIncomplete = false
	vs = reg.CheckAll(s)
	found := false
	for _, v := range vs {
		if v.Subject != nil && v.Subject.Name() == "User3" && v.Err != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("strict mode should surface evaluation errors")
	}
}

func TestSystemScopedInvariant(t *testing.T) {
	s := testSystem()
	inv := MustInvariant("fewGroups", "", "size(select g : ServerGroupT in self.Components | g.load > 0) <= 2")
	if vs := inv.Check(s, nil, true); len(vs) != 0 {
		t.Fatalf("unexpected violations %v", vs)
	}
	inv2 := MustInvariant("noClients", "", "size(select c : ClientT in self.Components | true) == 0")
	if vs := inv2.Check(s, nil, true); len(vs) != 1 || vs[0].Subject != nil {
		t.Fatalf("want one system violation, got %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	s := testSystem()
	inv := MustInvariant("latency", "ClientT", "averageLatency <= maxLatency")
	vs := inv.Check(s, nil, true)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
	if got := vs[0].String(); !strings.Contains(got, "latency") || !strings.Contains(got, "User1") {
		t.Fatalf("violation string %q", got)
	}
}

// fixpointSrcs are the rows of TestPrintParseFixpoint and seeds of FuzzParse.
var fixpointSrcs = []string{
	"averageLatency <= maxLatency",
	"size(loadedServerGroups) == 0",
	"exists p : RequestT in cli.Ports | attached(p, badRole)",
	"select g : ServerGroupT in self.Components | connected(g, cli) and g.load > maxServerLoad",
	"select one s : ServerGroupT in self.Components | connected(cli, s)",
	"role.bandwidth >= minBandwidth or fallback == true",
	"not (a == b) and c < d + 2 * e",
	"-x + 3 > 0",
	"name == \"tab\t(raw) \\t(spelled) \\\" \\\\ é\" // and a comment",
	"1e21 > .5 and nil != f()",
}

// Property: parse(print(e)) == print(e) — printing is a fixpoint for parsed
// expressions.
func TestPrintParseFixpoint(t *testing.T) {
	for _, src := range fixpointSrcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", printed, src, err)
		}
		if e2.String() != printed {
			t.Fatalf("fixpoint failed: %q -> %q -> %q", src, printed, e2.String())
		}
	}
}

// Parse allocates the token slice and the tree, nothing else: the cursor is
// a value on the stack. core.NewAttached parses these three sources for
// every admitted app.
func TestParseAllocations(t *testing.T) {
	for _, src := range []string{"averageLatency <= maxLatency", "load <= maxServerLoad", "bandwidth >= minBandwidth"} {
		// One token slice, two Refs with their Parts, one Binary.
		if got := testing.AllocsPerRun(100, func() { _, _ = Parse(src) }); got != 6 {
			t.Errorf("Parse(%q): %v allocations, want 6", src, got)
		}
	}
}

// Property: randomly generated expressions either fail to parse, or print to
// a form that reparses to the same canonical string.
func TestRandomExprFixpoint(t *testing.T) {
	var gen func(rng *sim.Rand, depth int) string
	gen = func(rng *sim.Rand, depth int) string {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return "x"
			case 1:
				return "3.5"
			case 2:
				return "true"
			default:
				return "a.b"
			}
		}
		switch rng.Intn(6) {
		case 0:
			return "(" + gen(rng, depth-1) + " + " + gen(rng, depth-1) + ")"
		case 1:
			return "(" + gen(rng, depth-1) + " <= " + gen(rng, depth-1) + ")"
		case 2:
			return "(" + gen(rng, depth-1) + " and " + gen(rng, depth-1) + ")"
		case 3:
			return "size(f(" + gen(rng, depth-1) + "))"
		case 4:
			return "exists v : T in self.Components | " + gen(rng, depth-1)
		default:
			return "!(" + gen(rng, depth-1) + ")"
		}
	}
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		src := gen(rng, 3)
		e, err := Parse(src)
		if err != nil {
			return true
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			return false
		}
		return e2.String() == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
