package operators

import (
	"fmt"
	"math"

	"archadapt/internal/app"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// Default service-time model: base CPU cost plus per-bit disk/CPU cost,
// tuned so a 20 KB stress reply costs ≈0.45 s (three servers ≈ 6.7 req/s —
// overwhelmed by the 12 req/s stress phase, comfortable at the 6 req/s
// baseline).
const (
	ServiceBase   = 0.05
	ServicePerBit = 0.4 / (20 * 8192)
)

// Placement maps the logical deployment (a Spec) onto simulated machines.
type Placement struct {
	// ServerHosts and ClientHosts assign each named server/client a host.
	ServerHosts map[string]netsim.NodeID
	ClientHosts map[string]netsim.NodeID
	// QueueHost runs the request-queue machine; ManagerHost runs the repair
	// infrastructure (architecture manager, gauge manager, Remos).
	QueueHost   netsim.NodeID
	ManagerHost netsim.NodeID

	// ServiceBase/ServicePerBit set every server's processing-time model;
	// zero values default to ServiceBase and ServicePerBit.
	ServiceBase   float64
	ServicePerBit float64

	// ClientRate and ClientRespBits configure initial client traffic; zero
	// values default to 1 req/s and 8 KB replies (jittered per request).
	ClientRate     float64
	ClientRespBits float64
}

// Deploy stands a spec up on a network: it builds the spec's architectural
// model, then creates the request queues and the server and client
// processes on pl's hosts and activates each group's initial servers.
// Client c draws its arrivals from rng.Fork(label+"client:"+c) and its reply
// sizes from rng.Fork(label+"resp:"+c). The placement's numbers are checked
// and the model built before any process is created, so a spec Build
// rejects or a non-finite or negative number creates nothing.
func Deploy(k *sim.Kernel, net *netsim.Network, spec Spec, pl Placement, rng *sim.Rand, label string) (*app.System, *model.System, error) {
	for _, f := range [...]struct {
		name string
		v    *float64
		def  float64
	}{
		{"ServiceBase", &pl.ServiceBase, ServiceBase},
		{"ServicePerBit", &pl.ServicePerBit, ServicePerBit},
		{"ClientRate", &pl.ClientRate, 1},
		{"ClientRespBits", &pl.ClientRespBits, 8 * 8192},
	} {
		if math.IsNaN(*f.v) || math.IsInf(*f.v, 0) || *f.v < 0 {
			return nil, nil, fmt.Errorf("operators: placement %s is %v, want a finite value >= 0", f.name, *f.v)
		}
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	mdl, err := Build(spec)
	if err != nil {
		return nil, nil, err
	}

	a := app.New(k, net, pl.QueueHost)
	for _, g := range spec.Groups {
		if err := a.CreateQueue(g.Name); err != nil {
			return nil, nil, err
		}
		for i, srv := range g.Servers {
			host, ok := pl.ServerHosts[srv]
			if !ok {
				return nil, nil, fmt.Errorf("operators: no host for server %s", srv)
			}
			a.AddServer(srv, host, g.Name, pl.ServiceBase, pl.ServicePerBit)
			if i < g.ActiveCount {
				if err := a.Activate(srv); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	for _, c := range spec.Clients {
		host, ok := pl.ClientHosts[c.Name]
		if !ok {
			return nil, nil, fmt.Errorf("operators: no host for client %s", c.Name)
		}
		cli := a.AddClient(c.Name, host, c.Group, pl.ClientRate, rng.Fork(label+"client:"+c.Name))
		cli.RespBits = app.LogNormalSize(pl.ClientRespBits, 0.35, rng.Fork(label+"resp:"+c.Name))
	}
	return a, mdl, nil
}
