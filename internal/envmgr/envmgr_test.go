package envmgr

import (
	"errors"
	"testing"

	"archadapt/internal/app"
	"archadapt/internal/netsim"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

type rig struct {
	k                          *sim.Kernel
	net                        *netsim.Network
	a                          *app.System
	m                          *Manager
	rm                         *remos.Service
	sHost, cHost, qHost, mHost netsim.NodeID
}

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k)
	r := net.AddRouter("r")
	sHost := net.AddHost("sHost")
	cHost := net.AddHost("cHost")
	qHost := net.AddHost("qHost")
	mHost := net.AddHost("mHost")
	spareHost := net.AddHost("spareHost")
	for _, h := range []netsim.NodeID{sHost, cHost, qHost, mHost, spareHost} {
		net.Connect(h, r, 10e6, 1e-3)
	}
	a := app.New(k, net, qHost)
	if err := a.CreateQueue("G1"); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateQueue("G2"); err != nil {
		t.Fatal(err)
	}
	a.AddServer("S1", sHost, "G1", 0.05, 0)
	if err := a.Activate("S1"); err != nil {
		t.Fatal(err)
	}
	a.AddServer("SP", spareHost, "G1", 0.05, 0) // spare
	a.AddClient("C1", cHost, "G1", 0, sim.NewRand(1))
	rm := remos.New(k, net, mHost)
	return &rig{k: k, net: net, a: a, m: New(k, net, a, mHost, rm), rm: rm,
		sHost: sHost, cHost: cHost, qHost: qHost, mHost: mHost}
}

func TestCreateReqQueueEffectAfterRPC(t *testing.T) {
	r := newRig(t)
	if err := r.m.CreateReqQueue("G3"); err != nil {
		t.Fatal(err)
	}
	// Effect lands only after the RPC delay.
	found := false
	for _, g := range r.a.Groups() {
		if g == "G3" {
			found = true
		}
	}
	if found {
		t.Fatal("queue materialized before RPC landed")
	}
	r.k.RunAll(0)
	found = false
	for _, g := range r.a.Groups() {
		if g == "G3" {
			found = true
		}
	}
	if !found {
		t.Fatal("queue never materialized")
	}
	if err := r.m.CreateReqQueue("G1"); err == nil {
		t.Fatal("duplicate queue should fail")
	}
}

func TestActivateDeactivateLifecycle(t *testing.T) {
	r := newRig(t)
	if err := r.m.ActivateServer("SP"); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if !r.a.Server("SP").Active() {
		t.Fatal("SP not active after RPC")
	}
	if err := r.m.ActivateServer("SP"); err == nil {
		t.Fatal("double activate should fail")
	}
	if err := r.m.DeactivateServer("SP"); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if r.a.Server("SP").Active() {
		t.Fatal("SP still active")
	}
	if err := r.m.DeactivateServer("SP"); err == nil {
		t.Fatal("double deactivate should fail")
	}
	if err := r.m.ActivateServer("nope"); err == nil {
		t.Fatal("unknown server should fail")
	}
}

func TestConnectServerRules(t *testing.T) {
	r := newRig(t)
	if err := r.m.ConnectServer("S1", "G2"); err == nil {
		t.Fatal("connecting an active server should fail")
	}
	if err := r.m.ConnectServer("SP", "G2"); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if r.a.Server("SP").Group != "G2" {
		t.Fatal("SP not repointed")
	}
	if err := r.m.ConnectServer("SP", "nope"); err == nil {
		t.Fatal("unknown queue should fail")
	}
}

func TestMoveClient(t *testing.T) {
	r := newRig(t)
	if err := r.m.MoveClient("C1", "G2"); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if r.a.Client("C1").Group != "G2" {
		t.Fatal("client not moved")
	}
	if err := r.m.MoveClient("C1", "nope"); err == nil {
		t.Fatal("unknown queue should fail")
	}
	if err := r.m.MoveClient("nope", "G1"); err == nil {
		t.Fatal("unknown client should fail")
	}
}

func TestFindServerUsesWarmRemosOnly(t *testing.T) {
	r := newRig(t)
	// Cold Remos: the spare is invisible (§5.3 cold-query lag).
	if _, err := r.m.FindServer("C1", 1e3); err == nil {
		t.Fatal("cold Remos should hide the spare")
	}
	r.rm.Prequery(r.a.Server("SP").Host, r.cHost)
	r.k.RunAll(0)
	name, err := r.m.FindServer("C1", 1e3)
	if err != nil {
		t.Fatal(err)
	}
	if name != "SP" {
		t.Fatalf("found %q, want SP", name)
	}
	// Threshold above the link capacity: no server qualifies.
	if _, err := r.m.FindServer("C1", 100e6); err == nil {
		t.Fatal("impossible threshold should fail")
	}
}

func TestRemosGetFlowRoundTrip(t *testing.T) {
	r := newRig(t)
	got := -1.0
	if err := r.m.RemosGetFlow("C1", "S1", func(bw float64) { got = bw }); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if got <= 0 {
		t.Fatal("no bandwidth answer")
	}
	if err := r.m.RemosGetFlow("nope", "S1", nil); err == nil {
		t.Fatal("unknown client should fail")
	}
	if err := r.m.RemosGetFlow("C1", "nope", nil); err == nil {
		t.Fatal("unknown server should fail")
	}
}

func TestFailureInjection(t *testing.T) {
	r := newRig(t)
	boom := errors.New("rmi boom")
	FailNext(r.m, boom)
	if err := r.m.ActivateServer("SP"); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// The failure is one-shot.
	if err := r.m.ActivateServer("SP"); err != nil {
		t.Fatal(err)
	}
	if r.m.Stats().Failures != 1 {
		t.Fatalf("failures=%d", r.m.Stats().Failures)
	}
}

func TestStatsCount(t *testing.T) {
	r := newRig(t)
	_ = r.m.ActivateServer("SP")
	_ = r.m.MoveClient("C1", "G2")
	_, _ = r.m.FindServer("C1", 1e3)
	st := r.m.Stats()
	if st.ActivateServer != 1 || st.MoveClient != 1 || st.FindServer != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Apply realizes a model-level addServer for a spare parked on another
// group's queue as connect, then activate.
func TestApplyAddServerConnectsThenActivates(t *testing.T) {
	r := newRig(t)
	if err := r.m.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G2", Server: "SP"}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	srv := r.a.Server("SP")
	if !srv.Active() || srv.Group != "G2" {
		t.Fatalf("SP active=%v group=%s", srv.Active(), srv.Group)
	}
	if st := r.m.Stats(); st.ConnectServer != 1 || st.ActivateServer != 1 {
		t.Fatalf("stats %+v, want one connect and one activate", st)
	}
}

func TestApplyAddServerSkipsConnectWhenParkedOnGroup(t *testing.T) {
	r := newRig(t)
	if err := r.m.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G1", Server: "SP"}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if !r.a.Server("SP").Active() {
		t.Fatal("SP inactive")
	}
	if st := r.m.Stats(); st.ConnectServer != 0 || st.ActivateServer != 1 {
		t.Fatalf("stats %+v, want one activate and no connect", st)
	}
}

func TestApplyRemoveServer(t *testing.T) {
	r := newRig(t)
	if err := r.m.Apply(repair.Op{Kind: repair.OpRemoveServer, Group: "G1", Server: "S1"}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if r.a.Server("S1").Active() {
		t.Fatal("S1 still active")
	}
	if st := r.m.Stats(); st.DeactivateServer != 1 {
		t.Fatalf("stats %+v, want one deactivate", st)
	}
}

func TestApplyMoveClient(t *testing.T) {
	r := newRig(t)
	if err := r.m.Apply(repair.Op{Kind: repair.OpMoveClient, Client: "C1", Group: "G2"}); err != nil {
		t.Fatal(err)
	}
	r.k.RunAll(0)
	if r.a.Client("C1").Group != "G2" {
		t.Fatal("client not moved")
	}
	if st := r.m.Stats(); st.MoveClient != 1 {
		t.Fatalf("stats %+v, want one move", st)
	}
}

func TestApplyUnknownFails(t *testing.T) {
	r := newRig(t)
	if err := r.m.Apply(repair.Op{Kind: repair.OpAddServer, Group: "G1", Server: "nope"}); err == nil {
		t.Fatal("unknown server should fail")
	}
	if err := r.m.Apply(repair.Op{Kind: repair.OpMoveClient, Client: "C1", Group: "nope"}); err == nil {
		t.Fatal("unknown group should fail")
	}
	if err := r.m.Apply(repair.Op{Kind: repair.OpKind(99)}); err == nil {
		t.Fatal("unknown op kind should fail")
	}
}
