package model

import "testing"

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
