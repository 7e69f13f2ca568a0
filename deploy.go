package archadapt

import (
	"archadapt/internal/core"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
)

// Placement maps the logical deployment (a Spec) onto simulated machines.
type Placement = operators.Placement

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

// Deploy instantiates a Spec on a network through operators.Deploy: it
// builds the matching architectural model, creates the request queues and
// the server and client processes, and activates each group's initial
// servers. The returned Deployment is ready for Manage plus App.Start. A
// spec that Build rejects (a repeated name, say), a missing host or a
// non-finite or negative Placement number is an error.
func Deploy(k *Kernel, net *Network, spec Spec, pl Placement, seed uint64) (*Deployment, error) {
	a, mdl, err := operators.Deploy(k, net, spec, pl, sim.NewRand(seed), "")
	if err != nil {
		return nil, err
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
