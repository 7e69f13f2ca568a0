// Package archadapt is a software architecture-based self-adaptation
// framework for grid applications, reproducing Cheng, Garlan, Schmerl,
// Steenkiste & Hu, "Software Architecture-based Adaptation for Grid
// Computing" (HPDC-11, 2002).
//
// The framework keeps an architectural model (a typed component/connector
// graph with property lists) of a running system, monitors the system
// through a probe→gauge→consumer pipeline riding a content-based event bus,
// checks declarative architectural constraints against the model, and on
// violation executes repair strategies — each one function that calls its
// guarded tactics in its own order — whose committed operations the
// environment manager translates into its runtime operators (the paper's
// Table 1) on the running system.
//
// Everything the paper's evaluation depends on is implemented here: a
// discrete-event kernel, a fluid-flow network simulator standing in for the
// 5-router/11-machine testbed, the replicated client/server grid application,
// a Remos-like bandwidth query service, a Siena-like event bus, the Acme-like
// architecture description language, and the full Figure 7 workload with the
// control/adaptive experiment harness regenerating Figures 8–13.
//
// This package exports what the commands and the examples use: Deploy for
// one managed application, the §5 experiment harness, and the fleet scenario
// runner. Everything else lives in internal packages.
//
// Quick start:
//
//	control := archadapt.RunExperiment(archadapt.ExperimentOptions{Seed: 1})
//	adaptive := archadapt.RunExperiment(archadapt.ExperimentOptions{Adaptive: true, Seed: 1})
//	fmt.Println(archadapt.CompareRuns(control, adaptive))
package archadapt

import (
	"archadapt/internal/acme"
	"archadapt/internal/app"
	"archadapt/internal/core"
	"archadapt/internal/experiment"
	"archadapt/internal/fleet"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/remos"
	"archadapt/internal/sim"
)

// --- one managed application (see Deploy) ---

// Kernel is the discrete-event simulation kernel (virtual time).
type Kernel = sim.Kernel

// NewKernel creates a kernel with the clock at zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// Network is the fluid-flow network simulator (the testbed substitute).
type Network = netsim.Network

// NodeID identifies a simulated host or router.
type NodeID = netsim.NodeID

// NewNetwork creates an empty network on the kernel.
func NewNetwork(k *Kernel) *Network { return netsim.New(k) }

// App is the managed client/server grid application.
type App = app.System

// Model is the runtime architectural model: a typed graph of components and
// connectors with property lists.
type Model = model.System

// PrintModel renders a model in canonical ADL form.
func PrintModel(m *Model) string { return acme.PrintSystem(m) }

// Spec describes a client/server deployment (groups, spares, clients,
// thresholds) in the paper's architectural style.
type Spec = operators.Spec

// GroupSpec describes one replicated server group.
type GroupSpec = operators.GroupSpec

// ClientSpec describes one client.
type ClientSpec = operators.ClientSpec

// Remos is the bandwidth-prediction service (remos_get_flow).
type Remos = remos.Service

// ManagerConfig tunes the architecture manager; the zero value is the
// paper's configuration.
type ManagerConfig = core.Config

// Manager is the architecture manager: the framework's model layer.
type Manager = core.Manager

// --- the paper's experiment (§5) ---

// Prioritized is the QoS-protected priority for monitoring traffic
// (ManagerConfig.MonitoringPriority); the default is best effort.
const Prioritized = netsim.Prioritized

// ExperimentOptions configures a full §5 experiment run.
type ExperimentOptions = experiment.Options

// ExperimentResults carries the measured series and repair history.
type ExperimentResults = experiment.Results

// Figure identifies a paper figure (7–13).
type Figure = experiment.Figure

// RunExperiment executes one control or adaptive run of the paper's
// experiment.
func RunExperiment(opts ExperimentOptions) *ExperimentResults { return experiment.Run(opts) }

// RenderFigure produces the textual form of a figure from a run.
func RenderFigure(f Figure, r *ExperimentResults) string { return experiment.RenderFigure(f, r) }

// FigureCSV renders a figure's series as CSV.
func FigureCSV(f Figure, r *ExperimentResults) string { return experiment.CSVFor(f, r) }

// CompareRuns renders the control-vs-adaptive comparison table.
func CompareRuns(control, adaptive *ExperimentResults) string {
	return experiment.CompareRuns(control, adaptive)
}

// --- the fleet control plane ---

// Tracer is the deterministic observability plane: causal control-loop
// spans, phase-latency distributions and kernel event-rate counters, all
// stamped in virtual time. FleetScenarioOptions.Trace enables it; the
// finished run's Fleet.Tracer reads it back.
type Tracer = obs.Tracer

// FleetScenarioOptions configures a canned fleet run.
type FleetScenarioOptions = fleet.ScenarioOptions

// FleetScenarioRun is a fleet run that has been set up and not yet run.
type FleetScenarioRun = fleet.ScenarioRun

// FleetScenarioResult bundles a finished fleet run with its summaries.
type FleetScenarioResult = fleet.ScenarioResult

// StartFleetScenario builds a fleet run — grid, fleet, every admission placed
// and the whole script scheduled — without running it; Finish on the result
// runs it to completion, so a caller can time set-up and run apart.
func StartFleetScenario(opts FleetScenarioOptions) (*FleetScenarioRun, error) {
	return fleet.StartScenario(opts)
}

// FleetAppSummary is one application's aggregate row.
type FleetAppSummary = fleet.AppSummary

// FleetCompareTable renders a per-app comparison of two same-seed runs
// (control vs adaptive, or pinned vs migrating).
func FleetCompareTable(control, adaptive []FleetAppSummary) string {
	return fleet.CompareTable(control, adaptive)
}

// FleetMigrationPolicy tunes the fleet-level migration controller: the
// feedback loop that re-places a whole application when its grid region
// degrades beyond what intra-app repair can fix.
type FleetMigrationPolicy = fleet.MigrationPolicy

// FleetOpenLoopPolicy enables and tunes the open-loop heavy-traffic engine:
// aggregated arrival-driven flow classes, replica autoscaling and fleet
// admission control. The zero value disables it entirely.
type FleetOpenLoopPolicy = fleet.OpenLoopPolicy

// FleetScalePolicy tunes the open-loop replica autoscaler.
type FleetScalePolicy = fleet.ScalePolicy

// FleetAdmissionLedger is the admission controller's balanced books (see
// Fleet.OpenLoopLedger).
type FleetAdmissionLedger = fleet.AdmissionLedger

// FleetCatalogEntry is one named scenario in the fleet workload catalog.
type FleetCatalogEntry = fleet.CatalogEntry

// FleetCatalog returns the named scenario suite (see SCENARIOS.md).
func FleetCatalog() []FleetCatalogEntry { return fleet.Catalog() }

// FleetScenarioByName returns a catalog entry by name.
func FleetScenarioByName(name string) (FleetCatalogEntry, error) {
	return fleet.ScenarioByName(name)
}
