package model

import "testing"

func TestRestoreComponentRoundTrip(t *testing.T) {
	s := paperSystem()
	c := s.Component("ServerGrp2")
	// Detach nothing needed: ServerGrp2 has no attachments in paperSystem.
	if err := s.RemoveComponent("ServerGrp2"); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreComponent(c); err != nil {
		t.Fatal(err)
	}
	got := s.Component("ServerGrp2")
	if got != c {
		t.Fatal("restore must re-insert the same pointer")
	}
	if got.Rep == nil || len(got.Rep.Components()) != 3 {
		t.Fatal("representation lost across remove/restore")
	}
	if got.System() != s {
		t.Fatal("parent not relinked")
	}
	// Restoring again must fail (duplicate).
	if err := s.RestoreComponent(c); err == nil {
		t.Fatal("duplicate restore should fail")
	}
	if err := s.RestoreComponent(nil); err == nil {
		t.Fatal("nil restore should fail")
	}
}

func TestRestoreRole(t *testing.T) {
	s := paperSystem()
	conn := s.Connector("ReqConn1")
	role := conn.Role("client1")
	if err := s.Detach(s.Component("User1").Port("request"), role); err != nil {
		t.Fatal(err)
	}
	if err := conn.RemoveRole("client1"); err != nil {
		t.Fatal(err)
	}
	if err := conn.RestoreRole(role); err != nil {
		t.Fatal(err)
	}
	if conn.Role("client1") != role {
		t.Fatal("role pointer lost")
	}
	if err := conn.RestoreRole(role); err == nil {
		t.Fatal("duplicate role restore should fail")
	}

}

func TestRemovePortGuardedByAttachment(t *testing.T) {
	s := paperSystem()
	c := s.Component("User1")
	if err := c.RemovePort("request"); err == nil {
		t.Fatal("attached port removal should fail")
	}
	conn := s.Connector("ReqConn1")
	_ = s.Detach(c.Port("request"), conn.Role("client1"))
	if err := c.RemovePort("request"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePort("request"); err == nil {
		t.Fatal("double removal should fail")
	}
}
