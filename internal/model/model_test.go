package model

import (
	"strings"
	"testing"
	"testing/quick"

	"archadapt/internal/sim"
)

// paperSystem builds the Figure 2 architecture: clients, server groups with
// replicated-server representations, and request connectors.
func paperSystem() *System {
	s := NewSystem("storage", "ClientServerFam")
	for _, g := range []string{"ServerGrp1", "ServerGrp2"} {
		grp := s.AddComponent(g, "ServerGroupT")
		grp.AddPort("provide", "ProvideT")
		rep := grp.EnsureRep()
		for i := 1; i <= 3; i++ {
			srv := rep.AddComponent(g+"Srv"+string(rune('0'+i)), "ServerT")
			srv.AddPort("work", "WorkT")
		}
	}
	for i := 1; i <= 6; i++ {
		cli := s.AddComponent("User"+string(rune('0'+i)), "ClientT")
		cli.AddPort("request", "RequestT")
	}
	conn := s.AddConnector("ReqConn1", "ReqConnT")
	conn.AddRole("server", "ServerRoleT")
	_ = s.Attach(s.Component("ServerGrp1").Port("provide"), conn.Role("server"))
	for i := 1; i <= 6; i++ {
		r := conn.AddRole("client"+string(rune('0'+i)), "ClientRoleT")
		_ = s.Attach(s.Component("User"+string(rune('0'+i))).Port("request"), r)
	}
	return s
}

func TestBuildPaperSystem(t *testing.T) {
	s := paperSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Components()); got != 8 {
		t.Fatalf("components=%d, want 8", got)
	}
	if got := len(s.ComponentsByType("ClientT")); got != 6 {
		t.Fatalf("clients=%d, want 6", got)
	}
	grp := s.Component("ServerGrp1")
	if grp.Rep == nil || len(grp.Rep.Components()) != 3 {
		t.Fatal("ServerGrp1 representation should hold 3 servers")
	}
}

func TestConnectedPredicate(t *testing.T) {
	s := paperSystem()
	u1 := s.Component("User1")
	g1 := s.Component("ServerGrp1")
	g2 := s.Component("ServerGrp2")
	if !s.Connected(u1, g1) {
		t.Fatal("User1 should be connected to ServerGrp1")
	}
	if s.Connected(u1, g2) {
		t.Fatal("User1 should not be connected to ServerGrp2")
	}
	if !s.Connected(g1, u1) {
		t.Fatal("connected should be symmetric")
	}
}

// ConnectorsOf returns the connectors some port of c attaches to.
func (s *System) ConnectorsOf(c *Component) []*Connector {
	seen := map[*Connector]bool{}
	var out []*Connector
	for _, a := range s.atts {
		if a.Port.Owner == c && !seen[a.Role.Owner] {
			seen[a.Role.Owner] = true
			out = append(out, a.Role.Owner)
		}
	}
	return out
}

// ComponentsOn returns the components attached to connector conn.
func (s *System) ComponentsOn(conn *Connector) []*Component {
	seen := map[*Component]bool{}
	var out []*Component
	for _, a := range s.atts {
		if a.Role.Owner == conn && !seen[a.Port.Owner] {
			seen[a.Port.Owner] = true
			out = append(out, a.Port.Owner)
		}
	}
	return out
}

// Connected scans attachments in place; it must agree with walking
// ConnectorsOf and ComponentsOn on any attachment graph.
func TestConnectedMatchesConnectorWalk(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := NewSystem("rand", "Fam")
		for i := 0; i < 5; i++ {
			c := s.AddComponent("c"+string(rune('a'+i)), "T")
			c.AddPort("p", "PT")
			c.AddPort("q", "PT")
		}
		for i := 0; i < 3; i++ {
			conn := s.AddConnector("k"+string(rune('0'+i)), "CT")
			for j := 0; j < 3; j++ {
				if rng.Intn(2) == 0 {
					comp := s.Components()[rng.Intn(5)]
					_ = s.Attach(comp.Ports()[rng.Intn(2)], conn.AddRole("r"+string(rune('0'+j)), "RT"))
				}
			}
		}
		for _, a := range s.Components() {
			for _, b := range s.Components() {
				walk := false
				for _, conn := range s.ConnectorsOf(a) {
					for _, other := range s.ComponentsOn(conn) {
						walk = walk || other == b
					}
				}
				if s.Connected(a, b) != walk {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAttachedPredicate(t *testing.T) {
	s := paperSystem()
	conn := s.Connector("ReqConn1")
	p := s.Component("User1").Port("request")
	if !s.Attached(p, conn.Role("client1")) {
		t.Fatal("want attached")
	}
	if s.Attached(p, conn.Role("client2")) {
		t.Fatal("wrong role reported attached")
	}
}

func TestAttachRules(t *testing.T) {
	s := NewSystem("s", "")
	c := s.AddComponent("c", "T")
	p := c.AddPort("p", "PT")
	conn := s.AddConnector("x", "XT")
	r := conn.AddRole("r", "RT")
	if err := s.Attach(p, r); err != nil {
		t.Fatal(err)
	}
	// A role holds at most one attachment.
	c2 := s.AddComponent("c2", "T")
	p2 := c2.AddPort("p", "PT")
	if err := s.Attach(p2, r); err == nil {
		t.Fatal("attaching second port to same role should fail")
	}
	// Cross-system attach fails.
	s2 := NewSystem("s2", "")
	cc := s2.AddComponent("cc", "T")
	pp := cc.AddPort("p", "PT")
	if err := s.Attach(pp, r); err == nil {
		t.Fatal("cross-system attach should fail")
	}
}

func TestDetachUnknown(t *testing.T) {
	s := paperSystem()
	conn := s.Connector("ReqConn1")
	err := s.Detach(s.Component("User1").Port("request"), conn.Role("client2"))
	if err == nil || !strings.Contains(err.Error(), "no attachment") {
		t.Fatalf("err=%v", err)
	}
}

func TestPropsTypes(t *testing.T) {
	p := NewProps()
	p.Set("f", 1.5)
	p.Set("i", 42) // normalized to float64
	p.Set("b", true)
	p.Set("s", "hello")
	p.Set("ss", []string{"a", "b"})
	if f, ok := p.Float("f"); !ok || f != 1.5 {
		t.Fatal("float")
	}
	if f, ok := p.Float("i"); !ok || f != 42 {
		t.Fatal("int should read back as float")
	}
	if b, ok := p.Bool("b"); !ok || !b {
		t.Fatal("bool")
	}
	if s, ok := p.Get("s"); !ok || s != "hello" {
		t.Fatal("str")
	}
	if _, ok := p.Float("s"); ok {
		t.Fatal("type confusion")
	}
	if p.FloatOr("absent", 9) != 9 {
		t.Fatal("FloatOr default")
	}
	names := p.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted")
		}
	}
}

func TestPropsUnsupportedTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	p := NewProps()
	p.Set("x", struct{}{})
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	s := paperSystem()
	s.Component("User1").Props().Set("averageLatency", 1.25)
	s.Props().Set("maxLatency", 2.0)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	// Mutating the clone must not touch the original.
	c.Component("User1").Props().Set("averageLatency", 99.0)
	c.AddComponent("extra", "ClientT")
	if v, _ := s.Component("User1").Props().Float("averageLatency"); v != 1.25 {
		t.Fatal("clone mutation leaked into original")
	}
	if s.Component("extra") != nil {
		t.Fatal("clone component leaked")
	}
	if s.Equal(c) {
		t.Fatal("Equal failed to detect divergence")
	}
}

func TestCloneRepDeep(t *testing.T) {
	s := paperSystem()
	c := s.Clone()
	rep := c.Component("ServerGrp1").Rep
	rep.AddComponent("newServer", "ServerT")
	if len(s.Component("ServerGrp1").Rep.Components()) != 3 {
		t.Fatal("rep mutation leaked")
	}
}

func TestValidateCatchesForeignAttachment(t *testing.T) {
	s := paperSystem()
	// Forge an attachment to a component from a different system.
	other := NewSystem("other", "")
	oc := other.AddComponent("x", "T")
	op := oc.AddPort("p", "PT")
	s.atts = append(s.atts, Attachment{Port: op, Role: s.Connector("ReqConn1").Role("server")})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject foreign port")
	}
}

func TestComponentsOnAndConnectorsOf(t *testing.T) {
	s := paperSystem()
	conn := s.Connector("ReqConn1")
	comps := s.ComponentsOn(conn)
	if len(comps) != 7 { // 6 users + ServerGrp1
		t.Fatalf("componentsOn=%d, want 7", len(comps))
	}
	conns := s.ConnectorsOf(s.Component("User3"))
	if len(conns) != 1 || conns[0] != conn {
		t.Fatalf("connectorsOf wrong: %v", conns)
	}
}

// TestComponentsByTypeFollowsStructure: the cached answer tracks adds,
// removes and restores; a list handed out earlier is never rewritten; and a
// caller appending to the answer cannot reach the cache.
func TestComponentsByTypeFollowsStructure(t *testing.T) {
	s := paperSystem()
	names := func(cs []*Component) string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Name())
		}
		return strings.Join(out, ",")
	}
	const six = "User1,User2,User3,User4,User5,User6"
	first := s.ComponentsByType("ClientT")
	if got := names(first); got != six {
		t.Fatalf("clients %s", got)
	}
	if again := s.ComponentsByType("ClientT"); &again[0] != &first[0] {
		t.Error("an unchanged structure rebuilt the list")
	}
	if cap(first) != len(first) {
		t.Errorf("cap %d, len %d: an append would write into the cache", cap(first), len(first))
	}
	grown := append(first, s.Component("ServerGrp1"))
	grown[0] = grown[6]
	if got := names(s.ComponentsByType("ClientT")); got != six {
		t.Fatalf("a caller's append changed the answer: %s", got)
	}

	s.AddComponent("User0", "ClientT")
	if got := names(s.ComponentsByType("ClientT")); got != "User0,"+six {
		t.Errorf("after add: %s", got)
	}
	if got := names(first); got != six {
		t.Errorf("the list handed out before the add became %s", got)
	}
	if got := names(s.ComponentsByType("ServerGroupT")); got != "ServerGrp1,ServerGrp2" {
		t.Errorf("groups: %s", got)
	}
	if got := s.ComponentsByType("NoSuchT"); got != nil {
		t.Errorf("no such type: %v", got)
	}
}

// Property: clone is always Equal and structurally valid for randomly grown
// systems; mutating the clone never affects the original's element counts.
func TestCloneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRand(seed)
		s := NewSystem("rand", "Fam")
		nc := 1 + rng.Intn(6)
		for i := 0; i < nc; i++ {
			c := s.AddComponent("comp"+string(rune('a'+i)), "T")
			for j := 0; j < rng.Intn(3); j++ {
				c.AddPort("p"+string(rune('0'+j)), "PT")
			}
			if rng.Float64() < 0.3 {
				rep := c.EnsureRep()
				rep.AddComponent("inner", "IT")
			}
			c.Props().Set("load", rng.Float64()*10)
		}
		for i := 0; i < rng.Intn(3); i++ {
			conn := s.AddConnector("conn"+string(rune('0'+i)), "CT")
			for j := 0; j < 1+rng.Intn(3); j++ {
				conn.AddRole("r"+string(rune('0'+j)), "RT")
			}
		}
		// Random valid attachments.
		for _, conn := range s.Connectors() {
			for _, r := range conn.Roles() {
				comp := s.Components()[rng.Intn(len(s.Components()))]
				if len(comp.Ports()) == 0 {
					continue
				}
				p := comp.Ports()[rng.Intn(len(comp.Ports()))]
				_ = s.Attach(p, r) // may fail if role already used; fine
			}
		}
		if s.Validate() != nil {
			return false
		}
		c := s.Clone()
		if !s.Equal(c) || c.Validate() != nil {
			return false
		}
		before := len(s.Components())
		c.AddComponent("zzz", "T")
		return len(s.Components()) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRevisions pins which mutators move which revision: every structure
// edit moves the owning system's StructRev and no property revision; a
// property write moves only its own list's Rev, and only when it changes a
// value.
func TestRevisions(t *testing.T) {
	s := paperSystem()
	cli, conn := s.Component("User1"), s.Connector("ReqConn1")
	port, role := cli.Port("request"), conn.Role("client1")
	structural := []struct {
		name string
		do   func() error
	}{
		{"Detach", func() error { return s.Detach(port, role) }},
		{"RemoveRole", func() error { return conn.RemoveRole("client1") }},
		{"RestoreRole", func() error { return conn.RestoreRole(role) }},
		{"Attach", func() error { return s.Attach(port, role) }},
		{"AddRole", func() error { conn.AddRole("extra", "ClientRoleT"); return nil }},
		{"AddPort", func() error { cli.AddPort("spare", "RequestT"); return nil }},
		{"AddComponent", func() error { s.AddComponent("late", "ClientT"); return nil }},
		{"AddConnector", func() error { s.AddConnector("lateConn", "ReqConnT"); return nil }},
	}
	for _, m := range structural {
		before, props := s.StructRev(), s.Props().Rev()+cli.Props().Rev()
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if s.StructRev() == before {
			t.Errorf("%s left StructRev at %d", m.name, before)
		}
		if s.Props().Rev()+cli.Props().Rev() != props {
			t.Errorf("%s moved a property revision", m.name)
		}
	}
	before := s.StructRev()
	if err := s.Detach(port, conn.Role("server")); err == nil || s.StructRev() != before {
		t.Errorf("a failed Detach moved StructRev (err %v)", err)
	}

	p := cli.Props()
	writes := []struct {
		name  string
		do    func()
		moves bool
	}{
		{"first Set", func() { p.Set("load", 1.5) }, true},
		{"same value", func() { p.SetFloat("load", 1.5) }, false},
		{"new value", func() { p.Set("load", 2) }, true},
		{"new type", func() { p.Set("load", "high") }, true},
		{"same string", func() { p.Set("load", "high") }, false},
		{"bool", func() { p.Set("up", true) }, true},
		{"same bool", func() { p.Set("up", true) }, false},
		{"list", func() { p.Set("hosts", []string{"a"}) }, true},
		{"list again", func() { p.Set("hosts", []string{"a"}) }, true},
		{"Delete", func() { p.Delete("load") }, true},
		{"Delete absent", func() { p.Delete("load") }, false},
	}
	for _, w := range writes {
		rev, structRev, other := p.Rev(), s.StructRev(), s.Props().Rev()
		w.do()
		if moved := p.Rev() != rev; moved != w.moves {
			t.Errorf("%s: Rev moved = %v, want %v", w.name, moved, w.moves)
		}
		if s.StructRev() != structRev || s.Props().Rev() != other {
			t.Errorf("%s moved another revision", w.name)
		}
	}
	if v, ok := p.Get("up"); !ok || v != true || p.Has("load") || p.Len() != 2 {
		t.Errorf("after the writes: up=%v,%v load=%v len=%d", v, ok, p.Has("load"), p.Len())
	}
}
