// Package experiment reproduces the paper's evaluation (§5): the Figure 6
// testbed, the Figure 7 workload, the thirty-minute control and adaptive
// runs, and the series behind Figures 8–13.
package experiment

import (
	"archadapt/internal/app"
	"archadapt/internal/core"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
	"archadapt/internal/workload"
)

// Group and server names of the paper's deployment.
const (
	SG1 = "ServerGrp1"
	SG2 = "ServerGrp2"
)

// Testbed is the experimental installation: network, application, model,
// and (for adaptive runs) the architecture manager.
type Testbed struct {
	K     *sim.Kernel
	Net   *netsim.Network
	App   *app.System
	Model *model.System
	Mgr   *core.Manager
	Rm    *remos.Service

	Links workload.Links
	Hosts map[string]netsim.NodeID
}

// NewTestbed builds the Figure 6 deployment:
//
//	R1: C1,C2 (shared host) and S4 (also the repair infrastructure);
//	R2: S1,S2,S3;   R3: C3, C4;   R4: S5+request queues, S6;   R5: C5,C6, S7.
//
// Routers form the chain R1–R2–R3–R4–R5 plus the R2–R4 cross link, so the
// contested C3,C4↔SG1 and C3,C4↔SG2 paths (Figure 7) are isolated from the
// other clients' paths. All links run at 10 Mbps. The clients' request and
// reply sizes are the Figure 7 workload's (workload.Paper sets them at t=0,
// before the first request).
func NewTestbed(seed uint64) *Testbed {
	k := sim.NewKernel()
	net := netsim.New(k)
	tb := &Testbed{K: k, Net: net, Hosts: map[string]netsim.NodeID{}}

	r1 := net.AddRouter("R1")
	r2 := net.AddRouter("R2")
	r3 := net.AddRouter("R3")
	r4 := net.AddRouter("R4")
	r5 := net.AddRouter("R5")

	add := func(name string, router netsim.NodeID) netsim.NodeID {
		h := net.AddHost(name)
		net.Connect(h, router, workload.LinkCapacity, 1e-3)
		tb.Hosts[name] = h
		return h
	}
	mC12 := add("mC12", r1)
	mS4 := add("mS4", r1)
	mS1 := add("mS1", r2)
	mS2 := add("mS2", r2)
	mS3 := add("mS3", r2)
	mC3 := add("mC3", r3)
	mC4 := add("mC4", r3)
	mS5RQ := add("mS5RQ", r4)
	mS6 := add("mS6", r4)
	mC56 := add("mC56", r5)
	mS7 := add("mS7", r5)

	net.Connect(r1, r2, workload.LinkCapacity, 1e-3)
	sg1Path := net.Connect(r2, r3, workload.LinkCapacity, 1e-3)
	sg2Path := net.Connect(r3, r4, workload.LinkCapacity, 1e-3)
	net.Connect(r4, r5, workload.LinkCapacity, 1e-3)
	net.Connect(r2, r4, workload.LinkCapacity, 1e-3) // cross link
	tb.Links = workload.Links{SG1Path: sg1Path, SG2Path: sg2Path}

	// The application and its architectural model, deployed from one spec:
	// request queues on the S5 machine, Remos and the repair infrastructure
	// on S4's.
	a, mdl, err := operators.Deploy(k, net, operators.Spec{
		Name: "storage",
		Groups: []operators.GroupSpec{
			{Name: SG1, Servers: []string{"S1", "S2", "S3", "S4"}, ActiveCount: 3},
			{Name: SG2, Servers: []string{"S5", "S6", "S7"}, ActiveCount: 2},
		},
		Clients: []operators.ClientSpec{
			{Name: "C1", Group: SG1}, {Name: "C2", Group: SG1},
			{Name: "C3", Group: SG1}, {Name: "C4", Group: SG1},
			{Name: "C5", Group: SG1}, {Name: "C6", Group: SG1},
		},
		MaxLatency:    2.0,
		MaxServerLoad: 6.0,
		MinBandwidth:  10e3,
	}, operators.Placement{
		ServerHosts: map[string]netsim.NodeID{
			"S1": mS1, "S2": mS2, "S3": mS3, "S4": mS4,
			"S5": mS5RQ, "S6": mS6, "S7": mS7,
		},
		ClientHosts: map[string]netsim.NodeID{
			"C1": mC12, "C2": mC12, "C3": mC3, "C4": mC4, "C5": mC56, "C6": mC56,
		},
		QueueHost:   mS5RQ,
		ManagerHost: mS4,
		ClientRate:  workload.BaselineRate,
	}, sim.NewRand(seed), "")
	if err != nil {
		// Invariant: the spec and placement above are constants that name
		// a host for every process, and the golden tests build them on
		// every run.
		panic(err)
	}
	tb.App, tb.Model = a, mdl
	tb.Rm = remos.New(k, net, mS4)
	return tb
}

// Manage attaches an architecture manager (with its monitoring stack) on the
// repair-infrastructure host.
func (tb *Testbed) Manage(cfg core.Config) *core.Manager {
	tb.Mgr = core.New(cfg, tb.K, tb.Net, tb.App, tb.Model, tb.Hosts["mS4"], tb.Rm)
	return tb.Mgr
}
