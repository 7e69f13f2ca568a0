package translator

import (
	"testing"

	"archadapt/internal/app"
	"archadapt/internal/envmgr"
	"archadapt/internal/netsim"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

func rig(t *testing.T) (*sim.Kernel, *app.System, *Translator) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r := net.AddRouter("r")
	h1 := net.AddHost("h1")
	h2 := net.AddHost("h2")
	q := net.AddHost("q")
	m := net.AddHost("m")
	for _, h := range []netsim.NodeID{h1, h2, q, m} {
		net.Connect(h, r, 10e6, 1e-3)
	}
	a := app.New(k, net, q)
	_ = a.CreateQueue("G1")
	_ = a.CreateQueue("G2")
	a.AddServer("S1", h1, "G1", 0.05, 0)
	_ = a.Activate("S1")
	a.AddServer("SP", h2, "G2", 0.05, 0) // spare parked on G2
	a.AddClient("C1", h1, "G1", 0, sim.NewRand(1))
	env := envmgr.New(k, net, a, m, remos.New(k, net, m))
	return k, a, New(env)
}

func TestAddServerExpandsToConnectPlusActivate(t *testing.T) {
	k, a, tr := rig(t)
	// Model assigned the spare (parked on G2) to G1: translator must
	// connect it to G1's queue first, then activate.
	if err := tr.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G1", Server: "SP"}); err != nil {
		t.Fatal(err)
	}
	k.RunAll(0)
	srv := a.Server("SP")
	if !srv.Active() || srv.Group != "G1" {
		t.Fatalf("SP active=%v group=%s", srv.Active(), srv.Group)
	}
	if st := tr.Env.Stats(); st.ConnectServer != 1 || st.ActivateServer != 1 {
		t.Fatalf("stats %+v, want one connect and one activate", st)
	}
}

func TestAddServerSkipsConnectWhenParkedOnGroup(t *testing.T) {
	k, a, tr := rig(t)
	if err := tr.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G2", Server: "SP"}); err != nil {
		t.Fatal(err)
	}
	k.RunAll(0)
	if !a.Server("SP").Active() {
		t.Fatal("SP inactive")
	}
	if st := tr.Env.Stats(); st.ConnectServer != 0 || st.ActivateServer != 1 {
		t.Fatalf("stats %+v, want one activate and no connect", st)
	}
}

func TestRemoveServer(t *testing.T) {
	k, a, tr := rig(t)
	if err := tr.Apply(repair.Op{Kind: repair.OpRemoveServer, Group: "G1", Server: "S1"}); err != nil {
		t.Fatal(err)
	}
	k.RunAll(0)
	if a.Server("S1").Active() {
		t.Fatal("S1 still active")
	}
	if st := tr.Env.Stats(); st.DeactivateServer != 1 {
		t.Fatalf("stats %+v, want one deactivate", st)
	}
}

func TestMoveClientAndCreateQueue(t *testing.T) {
	k, a, tr := rig(t)
	if err := tr.Apply(repair.Op{Kind: repair.OpMoveClient, Client: "C1", Group: "G2"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(repair.Op{Kind: repair.OpCreateQueue, Group: "G3"}); err != nil {
		t.Fatal(err)
	}
	k.RunAll(0)
	if a.Client("C1").Group != "G2" {
		t.Fatal("client not moved")
	}
	has := false
	for _, g := range a.Groups() {
		if g == "G3" {
			has = true
		}
	}
	if !has {
		t.Fatal("queue not created")
	}
	if st := tr.Env.Stats(); st.MoveClient != 1 || st.CreateReqQueue != 1 {
		t.Fatalf("stats %+v, want one move and one queue creation", st)
	}
}

func TestUnknownServerFails(t *testing.T) {
	_, _, tr := rig(t)
	if err := tr.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G1", Server: "nope"}); err == nil {
		t.Fatal("unknown server should fail")
	}
	if err := tr.Apply(repair.Op{Kind: repair.OpMoveClient, Client: "C1", Group: "nope"}); err == nil {
		t.Fatal("unknown group should fail")
	}
	if err := tr.Apply(repair.Op{Kind: repair.OpKind(99)}); err == nil {
		t.Fatal("unknown op kind should fail")
	}
}
