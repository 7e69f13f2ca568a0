package acme

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/sim"
)

// MustParse is Parse that panics on error, for literal ADL fixtures.
func MustParse(src string) *Description {
	d, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return d
}

// Print renders a description in canonical ADL form, invariants included.
// Parse(Print(d)) yields a model Equal to d.System with the same invariants:
// the print → parse fixpoint the round-trip tests and FuzzParse run over.
func Print(d *Description) string {
	var b strings.Builder
	printSystem(&b, d.System, d.Invariants, 0, "system")
	return b.String()
}

const paperADL = `
// The Figure 2/3 architecture.
system storage : ClientServerFam = {
    property maxLatency = 2.0;
    property maxServerLoad = 6;
    property minBandwidth = 10000;

    component ServerGrp1 : ServerGroupT = {
        property load = 0.0;
        property replicationCount = 3;
        port provide : ProvideT;
        representation = {
            component Server1 : ServerT = { port work : WorkT; property active = true; }
            component Server2 : ServerT = { port work : WorkT; property active = true; }
            component Server3 : ServerT = { port work : WorkT; property active = true; }
        }
    }
    component User1 : ClientT = {
        property averageLatency = 0.0;
        port request : RequestT;
    }
    component User2 : ClientT = {
        port request : RequestT;
    }
    connector Req1 : ReqConnT = {
        property protocol = "fifo-queue";
        role server : ServerRoleT;
        role cli1 : ClientRoleT = { property bandwidth = 5.0e6; }
        role cli2 : ClientRoleT;
    }
    attachment ServerGrp1.provide to Req1.server;
    attachment User1.request to Req1.cli1;
    attachment User2.request to Req1.cli2;

    invariant latencyBound on ClientT : averageLatency <= maxLatency;
    invariant loadBound on ServerGroupT : load <= maxServerLoad;
    invariant bwBound on ClientRoleT : bandwidth >= minBandwidth;
}
`

func TestParsePaperADL(t *testing.T) {
	d, err := Parse(paperADL)
	if err != nil {
		t.Fatal(err)
	}
	s := d.System
	if s.Name() != "storage" || s.Type() != "ClientServerFam" {
		t.Fatalf("system header: %s : %s", s.Name(), s.Type())
	}
	if got, _ := s.Props().Float("maxLatency"); got != 2.0 {
		t.Fatalf("maxLatency=%v", got)
	}
	grp := s.Component("ServerGrp1")
	if grp == nil || grp.Rep == nil {
		t.Fatal("ServerGrp1 representation missing")
	}
	if len(grp.Rep.Components()) != 3 {
		t.Fatalf("rep servers=%d", len(grp.Rep.Components()))
	}
	if act := grp.Rep.Component("Server1").Props().BoolOr("active", false); !act {
		t.Fatal("Server1.active")
	}
	if proto, _ := s.Connector("Req1").Props().Get("protocol"); proto != "fifo-queue" {
		t.Fatalf("protocol=%q", proto)
	}
	if len(s.Attachments()) != 3 {
		t.Fatalf("attachments=%d", len(s.Attachments()))
	}
	if len(d.Invariants) != 3 {
		t.Fatalf("invariants=%d", len(d.Invariants))
	}
	if d.Invariants[0].Scope != "ClientT" {
		t.Fatalf("scope=%q", d.Invariants[0].Scope)
	}
}

// stringsADL holds what the printer must escape and the parser read back: a
// raw tab (the source may hold one; Print spells it \t), a quote, a backslash
// and a rune outside ASCII, in a property and in an invariant's literal.
const stringsADL = "system s = {\n" +
	"    component c : T = { property label = \"tab\there \\\"quoted\\\" back\\\\slash \u00e9\"; }\n" +
	"    invariant labelled on T : label == \"tab\there \\\"quoted\\\" back\\\\slash \u00e9\";\n" +
	"    invariant spelled on T : label == \"tab\\there \\\"quoted\\\" back\\\\slash \\u00e9\";\n" +
	"}\n"

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{paperADL, stringsADL} {
		d := MustParse(src)
		printed := Print(d)
		d2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, printed)
		}
		if !d.System.Equal(d2.System) {
			t.Fatalf("round-trip model mismatch:\n%s\nvs\n%s", printed, Print(d2))
		}
		if len(d2.Invariants) != len(d.Invariants) {
			t.Fatalf("invariants lost: %d vs %d", len(d2.Invariants), len(d.Invariants))
		}
		// Second print is a fixpoint.
		if Print(d2) != printed {
			t.Fatalf("print not canonical:\n%s\nvs\n%s", printed, Print(d2))
		}
	}
}

// A literal means the same string in an invariant as in a property, however
// it is spelled.
func TestInvariantStringLiteralMatchesProperty(t *testing.T) {
	d := MustParse(stringsADL)
	if got, _ := d.System.Component("c").Props().Get("label"); got != "tab\there \"quoted\" back\\slash é" {
		t.Fatalf("label=%q", got)
	}
	for _, inv := range d.Invariants {
		if vs := inv.Check(d.System, nil, false); len(vs) != 0 {
			t.Errorf("%s should hold: %v", inv.Name, vs)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no system":      `component x;`,
		"bad attachment": `system s = { attachment a.b to c.d; }`,
		"unknown port":   `system s = { component a = { }; connector c = { role r; } attachment a.p to c.r; }`,
		"double attach":  `system s = { component a = { port p; } component b = { port p; } connector c = { role r; } attachment a.p to c.r; attachment b.p to c.r; }`,
		"trailing":       `system s = { } extra`,
		"bad invariant":  `system s = { invariant x : ((broken; }`,
		"bad property":   `system s = { property p = ; }`,
		"unterminated":   `system s = { component x = {`,
		"bad char":       `system s = { @ }`,
		"newline string": "system s = { property p = \"a\nb\"; }",
		"dup component":  `system s = { component a; component a; }`,
		"bad escape":     `system s = { property p = "a\qb"; }`,
		"open invariant": `system s = { invariant x : 1 + 1 }`,
		"minus string":   `system s = { property p = -"a"; }`,
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, src)
		}
	}
}

// An error names the line it was found on, whichever layer found it.
func TestParseErrorsCarryTheLine(t *testing.T) {
	for name, src := range map[string]string{
		"declaration": "system s = {\n  component a;\n  widget b;\n}",
		"expression":  "system s = {\n  component a;\n  invariant x : size(a, ;\n}",
		"token":       "system s = {\n  // comment\n  property p = 1e;\n}",
		"attachment":  "system s = {\n  component a;\n  attachment a.p to c.r;\n}",
	} {
		_, err := Parse(src)
		if err == nil || !strings.HasPrefix(err.Error(), "acme:3: ") {
			t.Errorf("%s: error %v, want it to start with acme:3:", name, err)
		}
	}
}

// Representation nesting is bounded at constraint.MaxNesting and reported at
// its line. The stack limit is lowered so that an unbounded parser dies here
// on a stack overflow: this input needs over 64 MB of stack unbounded and
// stays under 16 MB bounded.
func TestRepresentationNestingIsBounded(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	src := "system s = {\n" + strings.Repeat("component c = { representation = {", 8*constraint.MaxNesting)
	_, err := Parse(src)
	if want := fmt.Sprintf("acme:2: representations nested deeper than %d", constraint.MaxNesting); err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	// ... and the bound is far from any architecture a person writes.
	d, err := Parse("system s = {" + strings.Repeat("component c = { representation = {", 50) + strings.Repeat("} }", 50) + "}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(Print(d)); err != nil {
		t.Error(err)
	}
}

// The words of the expression grammar are not reserved here.
func TestExpressionKeywordsNameElements(t *testing.T) {
	d := MustParse(`system in : one = { component select : not = { property forall = -5; port or; } }`)
	c := d.System.Component("select")
	if c == nil || c.Type() != "not" || c.Port("or") == nil {
		t.Fatalf("keyword-named elements missing:\n%s", Print(d))
	}
	if v, _ := c.Props().Float("forall"); v != -5 {
		t.Fatalf("forall=%v", v)
	}
	if _, err := Parse(Print(d)); err != nil {
		t.Fatal(err)
	}
}

// A name declared twice in one scope is a parse error at the second
// declaration's line.
func TestDuplicateNamesAreLineErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"component", "system s = {\n component a;\n component a;\n}", `acme:3: duplicate component "a"`},
		{"connector", "system s = {\n connector k;\n\n connector k = { }\n}", `acme:4: duplicate connector "k"`},
		{"port", "system s = {\n component c = {\n  port p;\n  port p : PT;\n }\n}", `acme:4: duplicate port c.p`},
		{"role", "system s = {\n connector k = { role r; role x; role r; }\n}", `acme:2: duplicate role k.r`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil || err.Error() != tc.want {
				t.Errorf("error %v, want %q", err, tc.want)
			}
		})
	}
}

func TestNegativeNumberProperty(t *testing.T) {
	d := MustParse(`system s = { property x = -2.5; }`)
	if v, _ := d.System.Props().Float("x"); v != -2.5 {
		t.Fatalf("x=%v", v)
	}
}

func TestCommentsIgnored(t *testing.T) {
	d := MustParse("system s = {\n// a comment\nproperty x = 1; // trailing\n}")
	if v, _ := d.System.Props().Float("x"); v != 1 {
		t.Fatal("comment handling broke property")
	}
}

func TestInvariantWithArithmeticAndQuantifier(t *testing.T) {
	src := `system s = {
        component g : ServerGroupT = { property load = 3; port p : PT; }
        invariant complex : size(select x : ServerGroupT in self.Components | x.load > 1 + 1) == 1;
    }`
	d := MustParse(src)
	if len(d.Invariants) != 1 {
		t.Fatal("invariant lost")
	}
	vs := d.Invariants[0].Check(d.System, nil, false)
	if len(vs) != 0 {
		t.Fatalf("invariant should hold: %v", vs)
	}
}

func TestEmptyDeclarationsShortForm(t *testing.T) {
	d := MustParse(`system s = { component a; connector c; }`)
	if d.System.Component("a") == nil || d.System.Connector("c") == nil {
		t.Fatal("short-form declarations missing")
	}
	// They print back in short form.
	printed := Print(d)
	if !strings.Contains(printed, "component a;") || !strings.Contains(printed, "connector c;") {
		t.Fatalf("short form not preserved:\n%s", printed)
	}
}

// randomDescription grows a random valid model, prints it, and reparses.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		sys := model.NewSystem("rnd", "Fam")
		sys.Props().Set("threshold", float64(rng.Intn(100)))
		nc := 1 + rng.Intn(5)
		for i := 0; i < nc; i++ {
			c := sys.AddComponent("comp"+string(rune('a'+i)), "CT")
			for j := 0; j < rng.Intn(3); j++ {
				c.AddPort("p"+string(rune('0'+j)), "PT")
			}
			if rng.Float64() < 0.5 {
				c.Props().Set("load", rng.Float64()*10)
			}
			if rng.Float64() < 0.25 {
				rep := c.EnsureRep()
				inner := rep.AddComponent("inner", "IT")
				inner.Props().Set("active", rng.Float64() < 0.5)
			}
		}
		for i := 0; i < rng.Intn(3); i++ {
			conn := sys.AddConnector("conn"+string(rune('0'+i)), "XT")
			for j := 0; j < 1+rng.Intn(4); j++ {
				r := conn.AddRole("r"+string(rune('0'+j)), "RT")
				if rng.Float64() < 0.5 {
					r.Props().Set("bandwidth", rng.Float64()*1e7)
				}
			}
		}
		for _, conn := range sys.Connectors() {
			for _, r := range conn.Roles() {
				comp := sys.Components()[rng.Intn(len(sys.Components()))]
				if len(comp.Ports()) == 0 {
					continue
				}
				_ = sys.Attach(comp.Ports()[rng.Intn(len(comp.Ports()))], r)
			}
		}
		printed := PrintSystem(sys)
		d, err := Parse(printed)
		if err != nil {
			t.Logf("parse error on:\n%s\n%v", printed, err)
			return false
		}
		return d.System.Equal(sys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
