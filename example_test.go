package archadapt_test

import (
	"fmt"
	"log"

	"archadapt"
)

// The smallest end-to-end use of the framework: a two-group client/server
// system on a toy network. Crushing the bandwidth between the client and its
// server group makes the architecture manager detect the latency violation
// and move the client to the healthy group — the paper's fixBandwidth
// repair, end to end.
func ExampleDeploy() {
	k := archadapt.NewKernel()
	net := archadapt.NewNetwork(k)

	// Topology: client -- r1 -- r2 -- groupA; r1 -- r3 -- groupB.
	cliHost := net.AddHost("client")
	r1 := net.AddRouter("r1")
	r2 := net.AddRouter("r2")
	r3 := net.AddRouter("r3")
	hostA := net.AddHost("hostA")
	hostB := net.AddHost("hostB")
	mgrHost := net.AddHost("mgr")
	net.Connect(cliHost, r1, 10e6, 1e-3)
	linkA := net.Connect(r1, r2, 10e6, 1e-3)
	net.Connect(r2, hostA, 10e6, 1e-3)
	net.Connect(r1, r3, 10e6, 1e-3)
	net.Connect(r3, hostB, 10e6, 1e-3)
	net.Connect(r1, mgrHost, 10e6, 1e-3)

	spec := archadapt.Spec{
		Name: "quickstart",
		Groups: []archadapt.GroupSpec{
			{Name: "GroupA", Servers: []string{"A1"}, ActiveCount: 1},
			{Name: "GroupB", Servers: []string{"B1"}, ActiveCount: 1},
		},
		Clients:       []archadapt.ClientSpec{{Name: "C1", Group: "GroupA"}},
		MaxLatency:    2.0,
		MaxServerLoad: 6,
		MinBandwidth:  10e3,
	}
	dep, err := archadapt.Deploy(k, net, spec, archadapt.Placement{
		ServerHosts: map[string]archadapt.NodeID{"A1": hostA, "B1": hostB},
		ClientHosts: map[string]archadapt.NodeID{"C1": cliHost},
		QueueHost:   mgrHost,
		ManagerHost: mgrHost,
	}, 42)
	if err != nil {
		log.Fatal(err)
	}
	mgr := dep.Manage(archadapt.ManagerConfig{})
	dep.App.Start()

	// At t=60 s, competition starves the path to GroupA (5 Kbps left).
	k.At(60, func() {
		fmt.Println("t=60   competition crushes the client<->GroupA path")
		net.SetBackgroundBoth(linkA, 10e6-5e3)
	})

	k.Run(300)

	fmt.Printf("t=300  client is now on %s\n", dep.App.Client("C1").Group)
	for _, sp := range mgr.Spans() {
		fmt.Printf("repair [%0.0f..%0.0f s] subject=%s tactics=%v ops=%v\n",
			sp.Start, sp.End, sp.Subject, sp.Tactics, sp.Ops)
	}
	if len(mgr.Spans()) == 0 {
		fmt.Println("no repairs fired (unexpected)")
	}
	fmt.Println("\narchitectural model after adaptation:")
	fmt.Print(archadapt.PrintModel(dep.Model))
	// Output:
	// t=60   competition crushes the client<->GroupA path
	// t=300  client is now on GroupB
	// repair [92..122 s] subject=C1 tactics=[fixBandwidth] ops=[moveClient(C1 -> GroupB)]
	//
	// architectural model after adaptation:
	// system quickstart : ClientServerFam = {
	//     property maxLatency = 2;
	//     property maxServerLoad = 6;
	//     property minBandwidth = 10000;
	//     component GroupA : ServerGroupT = {
	//         property load = 0;
	//         property replicationCount = 1;
	//         port provide : ProvideT;
	//         representation = {
	//             component A1 : ServerT = {
	//                 property active = true;
	//                 port work : WorkT;
	//             }
	//         }
	//     }
	//     component GroupB : ServerGroupT = {
	//         property load = 0;
	//         property replicationCount = 1;
	//         port provide : ProvideT;
	//         representation = {
	//             component B1 : ServerT = {
	//                 property active = true;
	//                 port work : WorkT;
	//             }
	//         }
	//     }
	//     component C1 : ClientT = {
	//         property averageLatency = 0.33784549878893405;
	//         port request : RequestT;
	//     }
	//     connector GroupAConn : ReqConnT = {
	//         role server : ServerRoleT;
	//     }
	//     connector GroupBConn : ReqConnT = {
	//         role server : ServerRoleT;
	//         role C1Role : ClientRoleT = {
	//             property bandwidth = 1e+07;
	//         }
	//     }
	//     attachment GroupA.provide to GroupAConn.server;
	//     attachment GroupB.provide to GroupBConn.server;
	//     attachment C1.request to GroupBConn.C1Role;
	// }
}

// Fault recovery: two of a group's three servers crash mid-run. The
// framework never observes the crash directly — it sees the architectural
// symptoms (queue length and client latency climbing past their bounds) and
// repairs the architecture by activating spares, the externalized-adaptation
// argument of §1: the application itself has no recovery code.
func ExampleDeploy_selfHeal() {
	k := archadapt.NewKernel()
	net := archadapt.NewNetwork(k)

	r := net.AddRouter("r")
	mgrHost := net.AddHost("mgr")
	net.Connect(mgrHost, r, 10e6, 1e-3)
	serverHosts := map[string]archadapt.NodeID{}
	for _, s := range []string{"S1", "S2", "S3", "S4", "S5"} {
		serverHosts[s] = net.AddHost("h" + s)
		net.Connect(serverHosts[s], r, 10e6, 1e-3)
	}
	clientHosts := map[string]archadapt.NodeID{}
	clients := []archadapt.ClientSpec{}
	for _, c := range []string{"C1", "C2", "C3"} {
		clientHosts[c] = net.AddHost("h" + c)
		net.Connect(clientHosts[c], r, 10e6, 1e-3)
		clients = append(clients, archadapt.ClientSpec{Name: c, Group: "G"})
	}

	spec := archadapt.Spec{
		Name: "selfheal",
		Groups: []archadapt.GroupSpec{
			{Name: "G", Servers: []string{"S1", "S2", "S3", "S4", "S5"}, ActiveCount: 3},
		},
		Clients:       clients,
		MaxLatency:    2.0,
		MaxServerLoad: 6,
		MinBandwidth:  10e3,
	}
	dep, err := archadapt.Deploy(k, net, spec, archadapt.Placement{
		ServerHosts:   serverHosts,
		ClientHosts:   clientHosts,
		QueueHost:     mgrHost,
		ManagerHost:   mgrHost,
		ServicePerBit: 0.3 / (8 * 8192), // ~0.35 s per baseline reply
		ClientRate:    2.0,              // 6 req/s aggregate on ~8.5 req/s capacity
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	mgr := dep.Manage(archadapt.ManagerConfig{SettleTime: 30})
	dep.App.Start()

	k.At(200, func() {
		fmt.Println("t=200  S1 and S2 crash (the framework is not told)")
		_ = dep.App.CrashServer("S1")
		_ = dep.App.CrashServer("S2")
	})
	k.Ticker(60, 60, func(now float64) {
		fmt.Printf("t=%-5.0f active=%v queue=%d\n", now, dep.App.ActiveServersOf("G"), dep.App.QueueLen("G"))
	})

	k.Run(900)

	fmt.Println("\nrepair history (symptom-driven, no fault notification):")
	for _, sp := range mgr.Spans() {
		fmt.Printf("  [%5.0f..%5.0f] subject=%s %v %v\n", sp.Start, sp.End, sp.Subject, sp.Tactics, sp.Ops)
	}
	fmt.Printf("\nfinal active servers: %v\n", dep.App.ActiveServersOf("G"))
	fmt.Printf("alerts (situations no tactic could repair): %d\n", mgr.AlertCount())
	// Output:
	// t=60    active=[S1 S2 S3] queue=3
	// t=120   active=[S1 S2 S3] queue=0
	// t=180   active=[S1 S2 S3] queue=0
	// t=200  S1 and S2 crash (the framework is not told)
	// t=240   active=[S3 S4 S5] queue=40
	// t=300   active=[S3 S4 S5] queue=0
	// t=360   active=[S3 S4 S5] queue=0
	// t=420   active=[S3 S4 S5] queue=1
	// t=480   active=[S3 S4 S5] queue=0
	// t=540   active=[S3 S4 S5] queue=3
	// t=600   active=[S3 S4 S5] queue=0
	// t=660   active=[S3 S4 S5] queue=1
	// t=720   active=[S3 S4 S5] queue=0
	// t=780   active=[S3 S4 S5] queue=0
	// t=840   active=[S3 S4 S5] queue=0
	// t=900   active=[S3 S4 S5] queue=0
	//
	// repair history (symptom-driven, no fault notification):
	//   [  216..  231] subject=C1 [fixServerLoad] [addServer(S4 in G)]
	//   [  232..  247] subject=C2 [fixServerLoad] [addServer(S5 in G)]
	//
	// final active servers: [S3 S4 S5]
	// alerts (situations no tactic could repair): 33
}

// Both directions of adaptation on a web-server farm under a diurnal load
// curve: the framework activates spare servers as load climbs (the paper's
// addServer repair) and — with ManagerConfig.ScaleDown, the paper's third,
// unshown repair — deactivates them again as load falls, honouring the cost
// goal of §1: "the set of currently active servers should be kept to a
// minimum".
func ExampleDeploy_scaleDown() {
	k := archadapt.NewKernel()
	net := archadapt.NewNetwork(k)

	// A small datacenter: clients on one switch, the farm on another.
	cRouter := net.AddRouter("edge")
	sRouter := net.AddRouter("farm")
	net.Connect(cRouter, sRouter, 100e6, 5e-4)
	mgrHost := net.AddHost("control-plane")
	net.Connect(mgrHost, sRouter, 100e6, 5e-4)

	serverHosts := map[string]archadapt.NodeID{}
	servers := []string{"W1", "W2", "W3", "W4", "W5", "W6"}
	for _, s := range servers {
		serverHosts[s] = net.AddHost("host" + s)
		net.Connect(serverHosts[s], sRouter, 100e6, 5e-4)
	}
	clientHosts := map[string]archadapt.NodeID{}
	clients := []archadapt.ClientSpec{}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("pop%d", i)
		clientHosts[name] = net.AddHost(name)
		net.Connect(clientHosts[name], cRouter, 100e6, 5e-4)
		clients = append(clients, archadapt.ClientSpec{Name: name, Group: "Farm"})
	}

	spec := archadapt.Spec{
		Name:          "webfarm",
		Groups:        []archadapt.GroupSpec{{Name: "Farm", Servers: servers, ActiveCount: 2}},
		Clients:       clients,
		MaxLatency:    1.0,
		MaxServerLoad: 4,
		MinBandwidth:  10e3,
	}
	dep, err := archadapt.Deploy(k, net, spec, archadapt.Placement{
		ServerHosts:   serverHosts,
		ClientHosts:   clientHosts,
		QueueHost:     mgrHost,
		ManagerHost:   mgrHost,
		ServiceBase:   0.05,
		ServicePerBit: 0.25 / (8 * 8192), // ~0.3 s per 8 KB page
		ClientRate:    1.0,
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	mgr := dep.Manage(archadapt.ManagerConfig{
		ScaleDown:     true,
		SettleTime:    90,   // let each scaling action take effect
		LoadSmoothing: 0.15, // hysteresis against add/remove flapping
	})
	dep.Model.Props().Set("minServerLoad", 0.5)
	dep.Model.Props().Set("minReplicas", 2.0)
	dep.App.Start()

	// Diurnal curve: each population ramps 1 -> 4 -> 1 req/s.
	rates := []struct {
		at   float64
		rate float64
	}{
		{300, 2.0}, {600, 4.0}, {1200, 2.0}, {1500, 1.0},
	}
	for _, step := range rates {
		k.At(step.at, func() {
			for _, c := range clients {
				dep.App.Client(c.Name).Rate = step.rate
			}
			fmt.Printf("t=%-5.0f demand -> %.0f req/s per population (%.0f aggregate)\n",
				step.at, step.rate, step.rate*4)
		})
	}
	// Report farm size over time.
	k.Ticker(60, 60, func(now float64) {
		fmt.Printf("t=%-5.0f active servers: %v  queue=%d\n",
			now, dep.App.ActiveServersOf("Farm"), dep.App.QueueLen("Farm"))
	})

	k.Run(1800)

	fmt.Println("\nrepair history:")
	for _, sp := range mgr.Spans() {
		fmt.Printf("  [%5.0f..%5.0f] %v %v\n", sp.Start, sp.End, sp.Tactics, sp.Ops)
	}
	fmt.Printf("\nfinal farm: %v (started with 2, peaked during the ramp, shrank after)\n",
		dep.App.ActiveServersOf("Farm"))
	// Output:
	// t=60    active servers: [W1 W2]  queue=0
	// t=120   active servers: [W1 W2]  queue=0
	// t=180   active servers: [W1 W2]  queue=0
	// t=240   active servers: [W1 W2]  queue=0
	// t=300   demand -> 2 req/s per population (8 aggregate)
	// t=300   active servers: [W1 W2]  queue=0
	// t=360   active servers: [W1 W2 W3 W4 W5]  queue=0
	// t=420   active servers: [W1 W2 W3 W4]  queue=0
	// t=480   active servers: [W1 W2 W3]  queue=0
	// t=540   active servers: [W1 W2 W3]  queue=4
	// t=600   demand -> 4 req/s per population (16 aggregate)
	// t=600   active servers: [W1 W2 W3]  queue=0
	// t=660   active servers: [W1 W2 W3 W4 W5 W6]  queue=69
	// t=720   active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=780   active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=840   active servers: [W1 W2 W3 W4 W5 W6]  queue=1
	// t=900   active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=960   active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=1020  active servers: [W1 W2 W3 W4 W5 W6]  queue=1
	// t=1080  active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=1140  active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=1200  demand -> 2 req/s per population (8 aggregate)
	// t=1200  active servers: [W1 W2 W3 W4 W5 W6]  queue=2
	// t=1260  active servers: [W1 W2 W3 W4 W5 W6]  queue=0
	// t=1320  active servers: [W1 W2 W3 W4 W5]  queue=0
	// t=1380  active servers: [W1 W2 W3 W4]  queue=0
	// t=1440  active servers: [W1 W2 W3 W4]  queue=0
	// t=1500  demand -> 1 req/s per population (4 aggregate)
	// t=1500  active servers: [W1 W2 W3 W4]  queue=0
	// t=1560  active servers: [W1 W2 W3 W4]  queue=0
	// t=1620  active servers: [W1 W2 W3 W4]  queue=0
	// t=1680  active servers: [W1 W2 W3]  queue=0
	// t=1740  active servers: [W1 W2]  queue=0
	// t=1800  active servers: [W1 W2]  queue=1
	//
	// repair history:
	//   [  312..  327] [fixServerLoad] [addServer(W3 in Farm)]
	//   [  328..  343] [fixServerLoad] [addServer(W4 in Farm)]
	//   [  344..  359] [fixServerLoad] [addServer(W5 in Farm)]
	//   [  366..  381] [fixUnderutilization] [removeServer(W5 from Farm)]
	//   [  456..  471] [fixUnderutilization] [removeServer(W4 from Farm)]
	//   [  612..  627] [fixServerLoad] [addServer(W4 in Farm)]
	//   [  628..  643] [fixServerLoad] [addServer(W5 in Farm)]
	//   [  644..  659] [fixServerLoad] [addServer(W6 in Farm)]
	//   [ 1260.. 1275] [fixUnderutilization] [removeServer(W6 from Farm)]
	//   [ 1350.. 1365] [fixUnderutilization] [removeServer(W5 from Farm)]
	//   [ 1440.. 1455] [fixUnderutilization] [removeServer(W4 from Farm)]
	//   [ 1486.. 1501] [fixServerLoad] [addServer(W4 in Farm)]
	//   [ 1502.. 1517] [fixServerLoad] [addServer(W5 in Farm)]
	//   [ 1530.. 1545] [fixUnderutilization] [removeServer(W5 from Farm)]
	//   [ 1620.. 1635] [fixUnderutilization] [removeServer(W4 from Farm)]
	//   [ 1710.. 1725] [fixUnderutilization] [removeServer(W3 from Farm)]
	//
	// final farm: [W1 W2] (started with 2, peaked during the ramp, shrank after)
}
