package constraint

import (
	"testing"
)

func TestUnionContainsHasProperty(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	v := eval(t, "size(union(select c : ClientT in self.Components | true, select g : ServerGroupT in self.Components | true))", env)
	if v.Num() != 4 {
		t.Fatalf("union size=%v, want 4 (2 clients + 2 groups)", v)
	}
	env.Bind("cli", Elem(s.Component("User1")))
	if v := eval(t, "contains(select c : ClientT in self.Components | true, cli)", env); !v.Bool() {
		t.Fatal("contains should find User1")
	}
	env.Bind("grp", Elem(s.Component("ServerGrp1")))
	if v := eval(t, "contains(select c : ClientT in self.Components | true, grp)", env); v.Bool() {
		t.Fatal("contains should not find a group among clients")
	}
	if v := eval(t, `hasProperty(cli, "averageLatency")`, env); !v.Bool() {
		t.Fatal("hasProperty true case")
	}
	if v := eval(t, `hasProperty(cli, "nope")`, env); v.Bool() {
		t.Fatal("hasProperty false case")
	}
}

func TestNestedQuantifiers(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	// For every client there exists a request port — the Fig. 5 line 6-8
	// shape, nested.
	v := eval(t, "forall c : ClientT in self.Components | exists p : RequestT in c.Ports | true", env)
	if !v.Bool() {
		t.Fatal("nested quantifier failed")
	}
	// select inside select: groups connected to some violating client.
	v = eval(t, `size(select g : ServerGroupT in self.Components |
        size(select c : ClientT in self.Components | connected(g, c) and c.averageLatency > maxLatency) > 0) == 1`, env)
	if !v.Bool() {
		t.Fatal("nested select failed")
	}
}

func TestValueStringForms(t *testing.T) {
	s := testSystem()
	cases := map[string]Value{
		"nil":    Nil(),
		"3.5":    Num(3.5),
		"true":   Bool(true),
		`"x"`:    Str("x"),
		"{3, 4}": Set([]Value{Num(3), Num(4)}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String()=%q, want %q", got, want)
		}
	}
	ev := Elem(s.Component("User1"))
	if got := ev.String(); got != "<component User1>" {
		t.Errorf("elem string %q", got)
	}
}

func TestEqualMixedKinds(t *testing.T) {
	if equal(Num(1), Str("1")) {
		t.Fatal("cross-kind equality")
	}
	if !equal(Set([]Value{Num(1)}), Set([]Value{Num(1)})) {
		t.Fatal("set equality")
	}
	if equal(Set([]Value{Num(1)}), Set([]Value{Num(2)})) {
		t.Fatal("set inequality")
	}
	if equal(Set([]Value{Num(1)}), Set([]Value{Num(1), Num(2)})) {
		t.Fatal("set length inequality")
	}
}

func TestRolesAndRepsPseudoProps(t *testing.T) {
	s := testSystem()
	env := NewEnv(s)
	env.Bind("conn", Elem(s.Connector("Req1")))
	if v := eval(t, "size(select r : ClientRoleT in conn.Roles | true)", env); v.Num() != 2 {
		t.Fatalf("roles=%v", v)
	}
	// Reps on a component without a representation yields the empty set.
	env.Bind("grp", Elem(s.Component("ServerGrp1")))
	if v := eval(t, "size(grp.Reps)", env); v.Num() != 0 {
		t.Fatalf("reps=%v", v)
	}
}
