// Package archadapt is a software architecture-based self-adaptation
// framework for grid applications, reproducing Cheng, Garlan, Schmerl,
// Steenkiste & Hu, "Software Architecture-based Adaptation for Grid
// Computing" (HPDC-11, 2002).
//
// The framework keeps an architectural model (a typed component/connector
// graph with property lists) of a running system, monitors the system
// through a probe→gauge→consumer pipeline riding a content-based event bus,
// checks declarative architectural constraints against the model, and on
// violation executes repair strategies — ordered, guarded tactics — whose
// committed operations a translator propagates to the running system via the
// environment manager's runtime operators (the paper's Table 1).
//
// Everything the paper's evaluation depends on is implemented here: a
// discrete-event kernel, a fluid-flow network simulator standing in for the
// 5-router/11-machine testbed, the replicated client/server grid application,
// a Remos-like bandwidth query service, a Siena-like event bus, the Acme-like
// architecture description language, and the full Figure 7 workload with the
// control/adaptive experiment harness regenerating Figures 8–13.
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
	"archadapt/internal/bus"
	"archadapt/internal/constraint"
	"archadapt/internal/core"
	"archadapt/internal/envmgr"
	"archadapt/internal/experiment"
	"archadapt/internal/fleet"
	"archadapt/internal/metrics"
	"archadapt/internal/model"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
	"archadapt/internal/queueing"
	"archadapt/internal/remos"
	"archadapt/internal/repair"
	"archadapt/internal/script"
	"archadapt/internal/sim"
	"archadapt/internal/workload"
)

// --- simulation substrate ---

// Kernel is the discrete-event simulation kernel (virtual time).
type Kernel = sim.Kernel

// Rand is the deterministic PRNG used by all stochastic components.
type Rand = sim.Rand

// NewKernel creates a kernel with the clock at zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// NewRand creates a seeded deterministic generator.
func NewRand(seed uint64) *Rand { return sim.NewRand(seed) }

// Network is the fluid-flow network simulator (the testbed substitute).
type Network = netsim.Network

// NodeID identifies a simulated host or router.
type NodeID = netsim.NodeID

// LinkID identifies a simulated duplex link.
type LinkID = netsim.LinkID

// Priority selects best-effort vs QoS-protected control traffic.
type Priority = netsim.Priority

// Control-traffic priorities.
const (
	BestEffort  = netsim.BestEffort
	Prioritized = netsim.Prioritized
)

// NewNetwork creates an empty network on the kernel.
func NewNetwork(k *Kernel) *Network { return netsim.New(k) }

// --- managed application ---

// App is the managed client/server grid application.
type App = app.System

// Client is a request-generating client process.
type Client = app.Client

// Server is a (possibly spare) server process.
type Server = app.Server

// NewApp creates an application whose request queues live on queueHost.
func NewApp(k *Kernel, n *Network, queueHost NodeID) *App { return app.New(k, n, queueHost) }

// --- architecture model, ADL, constraints ---

// Model is the runtime architectural model: a typed graph of components and
// connectors with property lists.
type Model = model.System

// Component is a model component.
type Component = model.Component

// Connector is a model connector.
type Connector = model.Connector

// Invariant is a parsed architectural constraint.
type Invariant = constraint.Invariant

// NewModel creates an empty model with a name and style.
func NewModel(name, style string) *Model { return model.NewSystem(name, style) }

// ParseConstraint parses a constraint expression (Figure 5's predicate
// language: select/exists/forall, connected, attached, size, ...).
func ParseConstraint(src string) (constraint.Expr, error) { return constraint.Parse(src) }

// NewInvariant parses an invariant with a name and an element-type scope.
func NewInvariant(name, scope, src string) (*Invariant, error) {
	return constraint.NewInvariant(name, scope, src)
}

// ACMEDescription is a parsed architecture description (model + invariants).
type ACMEDescription = acme.Description

// ParseACME parses an Acme-like architecture description.
func ParseACME(src string) (*ACMEDescription, error) { return acme.Parse(src) }

// PrintACME renders a description in canonical ADL form.
func PrintACME(d *ACMEDescription) string { return acme.Print(d) }

// PrintModel renders just a model in canonical ADL form.
func PrintModel(m *Model) string { return acme.PrintSystem(m) }

// --- client-server style ---

// Spec describes a client/server deployment (groups, spares, clients,
// thresholds) in the paper's architectural style.
type Spec = operators.Spec

// GroupSpec describes one replicated server group.
type GroupSpec = operators.GroupSpec

// ClientSpec describes one client.
type ClientSpec = operators.ClientSpec

// BuildModel constructs the architectural model for a spec.
func BuildModel(spec Spec) (*Model, error) { return operators.Build(spec) }

// Strategy is a repair strategy (ordered guarded tactics).
type Strategy = repair.Strategy

// Tactic is one guarded repair.
type Tactic = repair.Tactic

// FixLatency builds the paper's Figure 5 strategy over a group query.
func FixLatency(query operators.GroupQuery) *Strategy { return operators.FixLatency(query) }

// ShrinkStrategy builds the scale-down strategy (the paper's third,
// unshown repair).
func ShrinkStrategy() *Strategy { return operators.ShrinkStrategy() }

// --- monitoring, environment, manager ---

// Bus is the Siena-like content-based event bus.
type Bus = bus.Bus

// NewBus creates a bus over the network.
func NewBus(k *Kernel, n *Network) *Bus { return bus.New(k, n) }

// Remos is the bandwidth-prediction service (remos_get_flow).
type Remos = remos.Service

// NewRemos creates a Remos service on a host.
func NewRemos(k *Kernel, n *Network, host NodeID) *Remos { return remos.New(k, n, host) }

// EnvManager exposes the Table 1 runtime operators.
type EnvManager = envmgr.Manager

// ManagerConfig tunes the architecture manager.
type ManagerConfig = core.Config

// Manager is the architecture manager: the framework's model layer.
type Manager = core.Manager

// RepairSpan is one completed repair with its wall-clock extent.
type RepairSpan = core.RepairSpan

// DefaultConfig returns the paper-faithful manager configuration.
func DefaultConfig() ManagerConfig { return core.Defaults() }

// NewManager wires an architecture manager over an application and model;
// host is the repair-infrastructure machine.
func NewManager(cfg ManagerConfig, k *Kernel, n *Network, a *App, m *Model, host NodeID, rm *Remos) *Manager {
	return core.New(cfg, k, n, a, m, host, rm)
}

// --- experiment harness ---

// ExperimentOptions configures a full §5 experiment run.
type ExperimentOptions = experiment.Options

// ExperimentResults carries the measured series and repair history.
type ExperimentResults = experiment.Results

// ExperimentSummary is a run's aggregate row.
type ExperimentSummary = experiment.Summary

// Testbed is the Figure 6 deployment.
type Testbed = experiment.Testbed

// Figure identifies a paper figure.
type Figure = experiment.Figure

// The paper's evaluation figures.
const (
	Figure7  = experiment.Figure7
	Figure8  = experiment.Figure8
	Figure9  = experiment.Figure9
	Figure10 = experiment.Figure10
	Figure11 = experiment.Figure11
	Figure12 = experiment.Figure12
	Figure13 = experiment.Figure13
)

// NewTestbed builds the Figure 6 testbed.
func NewTestbed(seed uint64) *Testbed { return experiment.NewTestbed(seed) }

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

// Series is a sampled time series.
type Series = metrics.Series

// Dist is an order-insensitive sample distribution (mean, min/max,
// nearest-rank percentiles), the representation behind phase latencies.
type Dist = metrics.Dist

// --- observability plane ---

// Tracer is the deterministic observability plane: causal control-loop
// spans, phase-latency distributions and kernel event-rate counters, all
// stamped in virtual time. Enable it fleet-wide with FleetConfig.Trace (or
// FleetScenarioOptions.Trace) and read it back via Fleet.Tracer.
type Tracer = obs.Tracer

// TraceSpan is one causal span in a trace.
type TraceSpan = obs.Span

// TraceSpanID identifies a span; parents always have lower IDs.
type TraceSpanID = obs.SpanID

// TraceKind is a span's place in the control loop (probe.sample,
// gauge.report, violation, repair, migrate.decide, ...).
type TraceKind = obs.Kind

// TracePhase is one adaptation phase (detect, decide, drain, recover).
type TracePhase = obs.Phase

// PhaseSet holds one latency distribution per adaptation phase.
type PhaseSet = obs.PhaseSet

// NewTracer creates a tracer reading the given clock (typically Kernel.Now).
func NewTracer(clock func() float64) *Tracer { return obs.New(clock) }

// ASCIIPlot renders series as a terminal plot.
func ASCIIPlot(title string, series []*Series, width, height int, logScale bool, yMin, yMax float64) string {
	return metrics.ASCIIPlot(title, series, width, height, logScale, yMin, yMax)
}

// --- grid topology generation & fleet control plane ---

// GridSpec parameterizes a generated grid topology (routers, hosts per
// router, link capacities) scaling the Figure 6 testbed shape.
type GridSpec = netsim.GridSpec

// Grid is a generated grid topology with the structure placement needs.
type Grid = netsim.Grid

// GenerateGrid builds a grid topology on a fresh network bound to k.
func GenerateGrid(k *Kernel, spec GridSpec) *Grid { return netsim.GenerateGrid(k, spec) }

// Fleet is the grid control plane: it admits, places, runs and retires many
// managed applications on one shared simulated grid, each with its own
// architecture manager multiplexed over the shared kernel.
type Fleet = fleet.Fleet

// FleetConfig tunes the fleet control plane.
type FleetConfig = fleet.Config

// FleetAppSpec describes one managed application to admit.
type FleetAppSpec = fleet.AppSpec

// FleetApp is a handle on one admitted application.
type FleetApp = fleet.App

// FleetAppSummary is one application's aggregate row.
type FleetAppSummary = fleet.AppSummary

// FleetAssignment maps one application's processes onto grid hosts.
type FleetAssignment = fleet.Assignment

// FleetScheduler places applications on grid hosts.
type FleetScheduler = fleet.Scheduler

// FleetScenarioOptions configures a canned fleet run.
type FleetScenarioOptions = fleet.ScenarioOptions

// FleetScenarioResult bundles a finished fleet run with its summaries.
type FleetScenarioResult = fleet.ScenarioResult

// FleetScenarioRun is a fleet run that has been set up and not yet run.
type FleetScenarioRun = fleet.ScenarioRun

// NewFleet creates a fleet control plane over a generated grid.
func NewFleet(k *Kernel, grid *Grid, seed uint64, cfg FleetConfig) (*Fleet, error) {
	return fleet.New(k, grid, seed, cfg)
}

// RunFleetScenario executes one canned fleet run to completion.
func RunFleetScenario(opts FleetScenarioOptions) (*FleetScenarioResult, error) {
	return fleet.RunScenario(opts)
}

// StartFleetScenario builds a fleet run — grid, fleet, every admission placed
// and the whole script scheduled — without running it; Finish on the result
// runs it to completion. RunFleetScenario is the two back to back; callers
// that time set-up and run apart (cmd/fleet) use this.
func StartFleetScenario(opts FleetScenarioOptions) (*FleetScenarioRun, error) {
	return fleet.StartScenario(opts)
}

// FleetTable renders per-app summaries as a fixed-width table.
func FleetTable(sums []FleetAppSummary) string { return fleet.Table(sums) }

// FleetCompareTable renders a per-app comparison of two same-seed runs
// (control vs adaptive, or pinned vs migrating).
func FleetCompareTable(control, adaptive []FleetAppSummary) string {
	return fleet.CompareTable(control, adaptive)
}

// FleetComparePair is one application's summaries across two same-seed runs.
type FleetComparePair = fleet.ComparePair

// FleetComparePairs pairs two runs' summaries by application name.
func FleetComparePairs(a, b []FleetAppSummary) []FleetComparePair {
	return fleet.ComparePairs(a, b)
}

// FleetMigrationPolicy tunes the fleet-level migration controller: the
// feedback loop that re-places a whole application when its grid region
// degrades beyond what intra-app repair can fix.
type FleetMigrationPolicy = fleet.MigrationPolicy

// FleetMigration records one re-placement of an application.
type FleetMigration = fleet.Migration

// FleetOpenLoopPolicy enables and tunes the open-loop heavy-traffic engine:
// aggregated arrival-driven flow classes, replica autoscaling and fleet
// admission control. The zero value disables it entirely.
type FleetOpenLoopPolicy = fleet.OpenLoopPolicy

// FleetScalePolicy tunes the open-loop replica autoscaler.
type FleetScalePolicy = fleet.ScalePolicy

// FleetAdmissionPolicy tunes the open-loop fleet admission controller.
type FleetAdmissionPolicy = fleet.AdmissionPolicy

// FleetArrivalSpec declaratively selects an application's open-loop arrival
// process (Poisson, diurnal with bursts, or trace-driven).
type FleetArrivalSpec = fleet.ArrivalSpec

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

// FleetRegionRank is a measured health score per grid region, consumed by
// FleetScheduler.PlaceRanked.
type FleetRegionRank = fleet.RegionRank

// FleetRegionHealth is the fleet's measured per-region health index (see
// Fleet.RegionHealth; non-nil when ranked migration targeting is enabled).
type FleetRegionHealth = fleet.RegionHealth

// --- design-time analysis ---

// MMm is the queueing model used for design-time sizing.
type MMm = queueing.MMm

// ServersFor returns the minimum replica count meeting a latency bound.
func ServersFor(lambda, mu, maxLatency float64, maxServers int) (int, MMm, bool) {
	return queueing.ServersFor(lambda, mu, maxLatency, maxServers)
}

// MinBandwidth returns the bandwidth floor for a reply size and budget.
func MinBandwidth(respBits, budget float64) float64 {
	return queueing.MinBandwidth(respBits, budget)
}

// --- workload ---

// WorkloadSchedule is a set of timed experimental-condition changes.
type WorkloadSchedule = workload.Schedule

// WorkloadLinks names the contested links of the Figure 7 schedule.
type WorkloadLinks = workload.Links

// PaperWorkload builds the Figure 7 schedule.
func PaperWorkload(n *Network, a *App, links WorkloadLinks, rng *Rand) *WorkloadSchedule {
	return workload.Paper(n, a, links, rng)
}

// --- repair-script language (Figure 5) ---

// ScriptLibrary is a compiled repair script: strategies and tactics written
// in the paper's Figure 5 language, executable on the repair engine.
type ScriptLibrary = script.Library

// ScriptOperatorSet supplies style operators and queries to scripts.
type ScriptOperatorSet = script.OperatorSet

// FixLatencyScript is the Figure 5 strategy in its textual form.
const FixLatencyScript = operators.FixLatencyScript

// CompileRepairScript compiles script source against an operator set.
func CompileRepairScript(src string, ops ScriptOperatorSet) (*ScriptLibrary, error) {
	return script.Compile(src, ops)
}

// ClientServerScriptOperators returns the client-server style's operator
// set (addServer/move/remove, roleOf/groupOf/findGoodSGrp) for scripts.
func ClientServerScriptOperators(query operators.GroupQuery) ScriptOperatorSet {
	return operators.ScriptOperators(query)
}
