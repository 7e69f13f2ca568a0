package archadapt

import (
	"fmt"

	"archadapt/internal/app"
	"archadapt/internal/core"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
)

// Placement maps the logical deployment (a Spec) onto simulated machines.
type Placement struct {
	// ServerHosts and ClientHosts assign each named server/client a host.
	ServerHosts map[string]NodeID
	ClientHosts map[string]NodeID
	// QueueHost runs the request-queue machine; ManagerHost runs the repair
	// infrastructure (architecture manager, gauge manager, Remos).
	QueueHost   NodeID
	ManagerHost NodeID

	// ServiceBase/ServicePerBit set every server's processing-time model;
	// zero values default to 50 ms + 0.4 s per 20 KB.
	ServiceBase   float64
	ServicePerBit float64

	// ClientRate and ClientRespBits configure initial client traffic; zero
	// values default to 1 req/s and 8 KB replies.
	ClientRate     float64
	ClientRespBits float64
}

// Deployment bundles a deployed scenario: the application, its architectural
// model, the Remos service, and (after Manage) the architecture manager.
type Deployment struct {
	K     *Kernel
	Net   *Network
	App   *App
	Model *Model
	Rm    *Remos
	Mgr   *Manager

	placement Placement
}

// Deploy instantiates a Spec on a network: creates the request queues, the
// server and client processes, activates each group's initial servers, and
// builds the matching architectural model. The returned Deployment is ready
// for Manage plus App.Start. The model is built first, so a spec that Build
// rejects (a repeated name, say) creates no process.
func Deploy(k *Kernel, net *Network, spec Spec, pl Placement, seed uint64) (*Deployment, error) {
	mdl, err := operators.Build(spec)
	if err != nil {
		return nil, err
	}
	if pl.ServiceBase == 0 {
		pl.ServiceBase = 0.05
	}
	if pl.ServicePerBit == 0 {
		pl.ServicePerBit = 0.4 / (20 * 8192)
	}
	if pl.ClientRate == 0 {
		pl.ClientRate = 1.0
	}
	if pl.ClientRespBits == 0 {
		pl.ClientRespBits = 8 * 8192
	}

	a := app.New(k, net, pl.QueueHost)
	rng := sim.NewRand(seed)
	for _, g := range spec.Groups {
		if err := a.CreateQueue(g.Name); err != nil {
			return nil, err
		}
		for i, srv := range g.Servers {
			host, ok := pl.ServerHosts[srv]
			if !ok {
				return nil, fmt.Errorf("archadapt: no host for server %s", srv)
			}
			a.AddServer(srv, host, g.Name, pl.ServiceBase, pl.ServicePerBit)
			if i < g.ActiveCount {
				if err := a.Activate(srv); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, c := range spec.Clients {
		host, ok := pl.ClientHosts[c.Name]
		if !ok {
			return nil, fmt.Errorf("archadapt: no host for client %s", c.Name)
		}
		cli := a.AddClient(c.Name, host, c.Group, pl.ClientRate, rng.Fork("client:"+c.Name))
		respBits := pl.ClientRespBits
		r := rng.Fork("resp:" + c.Name)
		cli.RespBits = func() float64 { return r.LogNormalAround(respBits, 0.35) }
	}

	return &Deployment{
		K: k, Net: net, App: a, Model: mdl,
		Rm:        remos.New(k, net, pl.ManagerHost),
		placement: pl,
	}, nil
}

// Manage attaches the architecture manager and deploys its monitoring.
func (d *Deployment) Manage(cfg ManagerConfig) *Manager {
	d.Mgr = core.New(cfg, d.K, d.Net, d.App, d.Model, d.placement.ManagerHost, d.Rm)
	d.Mgr.Deploy()
	return d.Mgr
}
