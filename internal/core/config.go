// Package core implements the model layer of Figure 1: the architecture
// manager. It consumes gauge reports, maintains the architectural model's
// properties, checks the architectural constraints, and — on violation —
// drives the repair engine, whose committed operations the environment
// manager (the translator of Figure 1, arrow 5) propagates to the running
// system. It also owns the repair-time gauge churn that dominated the
// paper's measured 30-second repairs.
package core

import (
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
)

// The control loop's timings, as in the paper's deployment.
const (
	// checkPeriod is how often constraints are evaluated against the model.
	checkPeriod = 2.0
	// gaugePeriod is the reporting period of all gauges.
	gaugePeriod = 5.0
	// latencyWindow is the latency gauge's sliding window.
	latencyWindow = 20.0
)

// Config tunes the architecture manager. The zero value is the paper's
// configuration: best-effort monitoring, destroy/recreate gauge churn, no
// settling, no damping, first-reporter repair selection and pre-queried Remos.
// The latency repair is the hand-coded Figure 5 strategy (operators.FixLatency),
// which the compiled script operators.FixLatencyScript reproduces exactly; the
// shrink repair is the compiled operators.ShrinkScript. No field selects
// another implementation.
type Config struct {
	// LoadSmoothing is the load gauge's EWMA coefficient in (0,1]; 1 (the
	// default) reports raw queue samples as the paper did. Lower values add
	// hysteresis, damping scale-up/scale-down flapping.
	LoadSmoothing float64

	// GaugeCaching enables the §5.3 extension: re-target gauges in place
	// instead of destroy+create.
	GaugeCaching bool
	// MonitoringPriority lifts monitoring traffic into a QoS-protected
	// class (§5.3 mitigation). Default BestEffort, as deployed in the paper.
	MonitoringPriority netsim.Priority
	// SkipRemosPrequery leaves Remos cold at startup. The default (false)
	// warms all client↔server pairs at deploy time, as the paper did after
	// discovering multi-minute cold queries; skipping it is the ablation
	// that exposes that pathology.
	SkipRemosPrequery bool

	// SmartSelection repairs the worst-latency client first instead of the
	// first reporter (§7 future work).
	SmartSelection bool

	// DisableRepairs runs the manager as a pure observer (the control run):
	// monitoring and constraint checking proceed, repairs never execute.
	DisableRepairs bool

	// ScaleDown enables the paper's third (unshown) repair: deactivate
	// servers in underutilized groups to "keep the set of currently active
	// servers to a minimum" (§1). Registers the utilizationFloor invariant
	// and binds the shrink script (operators.ShrinkScript).
	ScaleDown bool

	// Tracer, when non-nil, attaches the manager to the observability plane:
	// the control loop emits causally-linked spans (model update → violation
	// → repair decision → repair/drain → recovery) and phase-latency samples
	// onto it. Nil (the default) disables tracing with zero overhead and
	// byte-identical behavior — the tracer only observes, never steers.
	Tracer *obs.Tracer

	// SettleTime suppresses repeat repairs on one subject while the last
	// repair's effect lands (§5.3). Zero disables.
	SettleTime float64
	// OscillationWindow and OscillationMoves configure move-oscillation
	// detection; DampFactor scales the cooldown when damping kicks in.
	OscillationWindow float64
	OscillationMoves  int
	DampFactor        float64
}

// withDefaults clamps LoadSmoothing into (0,1], where 1 is raw samples.
func (c Config) withDefaults() Config {
	if c.LoadSmoothing <= 0 || c.LoadSmoothing > 1 {
		c.LoadSmoothing = 1
	}
	return c
}
