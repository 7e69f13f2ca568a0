// Package obs is the deterministic observability plane: causal tracing and
// phase-latency metrics for the whole adaptation control loop.
//
// The paper's claim is a closed loop — monitor, detect, decide, repair — but
// summary tables only show *outcomes*. This package records *why*: every
// adaptation becomes a causal chain of typed spans (probe sample → gauge
// update → gauge report → model update → violation → repair decision →
// tactic/op → repair, and at fleet scale verdict → migration decision →
// reservation → drain → cutover → recovery), linked by parent IDs, stamped
// with virtual time from the simulation kernel. On top of the spans, a
// phase registry attributes each adaptation's latency to four phases
// (detection, decision, drain, recovery) per application, with percentile
// summaries surfaced in the fleet tables.
//
// Purity contract: a nil *Tracer is the disabled plane. Every emitting hook
// in the kernel, bus, gauges, manager and fleet guards on Enabled() (nil-safe)
// so a run with tracing off executes the exact same event sequence, allocates
// nothing extra on the monitoring hot path, and produces byte-identical
// summaries — the same discipline as the fleet's retained references (the
// per-app monitoring plane, the global solver), held by
// TestTraceOffIsByteIdentical and the 2 % allocation margin of
// TestMigrationFixturesCost (internal/fleet).
//
// Determinism: the tracer reads time only from the injected clock (the
// kernel's virtual clock), never the wall clock, so same-seed runs produce
// identical span trees and identical phase distributions.
package obs

import "archadapt/internal/metrics"

// SpanID identifies one span within a Tracer. IDs are assigned densely from 1
// in emission order; 0 is "no span" (roots, or tracing disabled).
type SpanID uint64

// Kind is the span taxonomy: one constant per step of the control loop.
type Kind uint8

// Span kinds, in causal order through the two nested control loops. The
// monitoring kinds (ProbeSample..ModelUpdate) are emitted per message on the
// shared plane; the repair kinds by each application's core.Manager; the
// migration kinds by the fleet controller.
const (
	KindNone          Kind = iota
	KindProbeSample        // a probe observation published on the probe bus
	KindGaugeUpdate        // a gauge folding one probe sample into its window
	KindGaugeReport        // a gauge report published on the reporting bus
	KindModelUpdate        // the manager applying a report to the model
	KindViolation          // a constraint violation at a check tick
	KindRepairDecide       // the repair engine committing to a strategy
	KindTactic             // one tactic applied inside a repair decision
	KindOp                 // one committed model operation
	KindRepair             // the repair's runtime extent (incl. gauge churn)
	KindAlert              // human escalation (no tactic applied)
	KindVerdict            // a fleet unhealthy verdict for one app
	KindMigrateDecide      // the fleet committing to (or failing) a migration
	KindReserve            // the staged target reservation
	KindDrain              // the pause-and-drain extent
	KindCutover            // the re-placement instant
	KindRecover            // post-adaptation time back to healthy
	KindRegionHealth       // one region's health-index refresh (a counter)
	KindMessage            // any other bus message
)

var kindNames = [...]string{
	KindNone:          "none",
	KindProbeSample:   "probe.sample",
	KindGaugeUpdate:   "gauge.update",
	KindGaugeReport:   "gauge.report",
	KindModelUpdate:   "model.update",
	KindViolation:     "violation",
	KindRepairDecide:  "repair.decide",
	KindTactic:        "tactic",
	KindOp:            "op",
	KindRepair:        "repair",
	KindAlert:         "alert",
	KindVerdict:       "verdict",
	KindMigrateDecide: "migrate.decide",
	KindReserve:       "reserve",
	KindDrain:         "drain",
	KindCutover:       "cutover",
	KindRecover:       "recover",
	KindRegionHealth:  "region.health",
	KindMessage:       "message",
}

// String returns the kind's wire name (also the Chrome-trace category).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Span is one recorded step of the control loop. Parent links spans into the
// causal tree; Parent is always a lower ID (parents are recorded before their
// children), so ancestor walks terminate. End equals Start for instantaneous
// spans and -1 while a duration span is still open.
type Span struct {
	ID     SpanID
	Parent SpanID
	Kind   Kind
	// App is the owning application ("" for fleet-level spans).
	App string
	// Name identifies the subject: a client, gauge, strategy/subject pair,
	// region — whatever the kind observes.
	Name       string
	Start, End float64
	// V1/V2 carry the kind's values (latency, report value, streak length,
	// source/target health, region score/bandwidth).
	V1, V2 float64
}

// Phase is one of the four latency-attribution phases of an adaptation.
type Phase uint8

// The phases of one adaptation, at either loop level. Detection covers the
// monitoring pipeline (probe observation to first violation/verdict);
// decision the deliberation (first violation to committed repair, or streak
// start to migration decision); drain the disruptive extent (gauge churn, or
// client pause through cutover); recovery the settling time back to healthy.
const (
	PhaseDetect Phase = iota
	PhaseDecide
	PhaseDrain
	PhaseRecover
	NumPhases
)

var phaseNames = [...]string{"detect", "decide", "drain", "recover"}

// String returns the phase's display name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseSet holds one scope's (an application's, or the fleet's merged)
// phase-latency distributions, indexed by Phase.
type PhaseSet struct {
	D [NumPhases]metrics.Dist
}

// Dist returns the distribution for one phase.
func (s *PhaseSet) Dist(p Phase) *metrics.Dist { return &s.D[p] }

// Merge folds o's samples into s (fleet-wide aggregation).
func (s *PhaseSet) Merge(o *PhaseSet) {
	if o == nil {
		return
	}
	for i := range s.D {
		s.D[i].Merge(&o.D[i])
	}
}

// KernelBucketWidth is the width in virtual seconds of the tracer's kernel
// event-rate buckets.
const KernelBucketWidth = 10.0

// Tracer records spans and phase samples for one run. A nil Tracer is the
// disabled plane: Enabled() is false and every method is a no-op, which is
// the single nil check the hot paths pay.
type Tracer struct {
	clock func() float64
	spans []Span

	phases   map[string]*PhaseSet
	phaseApp []string // insertion order, for deterministic iteration

	kernelBuckets []uint64
}

// New creates a tracer reading virtual time from clock (the simulation
// kernel's Now).
func New(clock func() float64) *Tracer {
	if clock == nil {
		// Invariant: both callers, fleet.New (when tracing) and the
		// benchmark's traced paper run, pass their kernel's K.Now.
		panic("obs: New requires a clock")
	}
	return &Tracer{clock: clock, phases: map[string]*PhaseSet{}}
}

// Enabled reports whether the tracer records anything. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in emission order. The slice aliases the
// tracer's storage; callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Get returns a span by ID.
func (t *Tracer) Get(id SpanID) (Span, bool) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return Span{}, false
	}
	return t.spans[id-1], true
}

// Instant records an instantaneous span at the current virtual time and
// returns its ID (0 on a nil tracer).
func (t *Tracer) Instant(kind Kind, parent SpanID, app, name string, v1, v2 float64) SpanID {
	if t == nil {
		return 0
	}
	return t.InstantAt(t.clock(), kind, parent, app, name, v1, v2)
}

// InstantAt is Instant at virtual time at, for an event recorded before it
// happens: a probe sample a gauge folds at publish, which arrives later.
func (t *Tracer) InstantAt(at float64, kind Kind, parent SpanID, app, name string, v1, v2 float64) SpanID {
	if t == nil {
		return 0
	}
	return t.push(Span{Parent: parent, Kind: kind, App: app, Name: name,
		Start: at, End: at, V1: v1, V2: v2})
}

// Begin opens a duration span starting now; close it with EndSpan. An open
// span has End = -1.
func (t *Tracer) Begin(kind Kind, parent SpanID, app, name string, v1, v2 float64) SpanID {
	if t == nil {
		return 0
	}
	return t.push(Span{Parent: parent, Kind: kind, App: app, Name: name,
		Start: t.clock(), End: -1, V1: v1, V2: v2})
}

// EndSpan closes an open duration span at the current virtual time. Unknown
// or already-closed IDs are no-ops, so abort paths can close defensively.
func (t *Tracer) EndSpan(id SpanID) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return
	}
	sp := &t.spans[id-1]
	if sp.End < sp.Start {
		sp.End = t.clock()
	}
}

func (t *Tracer) push(sp Span) SpanID {
	// Parents are recorded before children; a forward reference would break
	// ancestor-walk termination, so it is clamped to root.
	if sp.Parent > SpanID(len(t.spans)) {
		sp.Parent = 0
	}
	sp.ID = SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, sp)
	return sp.ID
}

// Ancestor walks the parent chain of id (excluding id itself) and returns the
// first span whose kind is in kinds.
func (t *Tracer) Ancestor(id SpanID, kinds ...Kind) (Span, bool) {
	if t == nil {
		return Span{}, false
	}
	cur, ok := t.Get(id)
	for ok && cur.Parent != 0 {
		cur, ok = t.Get(cur.Parent)
		if !ok {
			break
		}
		for _, k := range kinds {
			if cur.Kind == k {
				return cur, true
			}
		}
	}
	return Span{}, false
}

// StartOf returns a span's start time (0 for an unknown span).
func (t *Tracer) StartOf(id SpanID) float64 {
	sp, _ := t.Get(id)
	return sp.Start
}

// Origin returns when the observation behind span id was made: the start of
// its nearest probe-sample ancestor, else the span's own start (a bandwidth
// report is rooted at the Remos reply, not a probe). It is the start of every
// detect-phase sample. ok is false for an unknown span.
func (t *Tracer) Origin(id SpanID) (start float64, ok bool) {
	sp, ok := t.Get(id)
	if !ok {
		return 0, false
	}
	if anc, found := t.Ancestor(id, KindProbeSample); found {
		return anc.Start, true
	}
	return sp.Start, true
}

// KernelEvent counts one fired kernel event at virtual time at into the
// event-rate buckets. Called from the kernel's fire hook, so it must stay
// allocation-free in the steady state (the bucket slice grows monotonically).
func (t *Tracer) KernelEvent(at float64) {
	if t == nil || at < 0 {
		return
	}
	idx := int(at / KernelBucketWidth)
	for idx >= len(t.kernelBuckets) {
		t.kernelBuckets = append(t.kernelBuckets, 0)
	}
	t.kernelBuckets[idx]++
}

// KernelBuckets returns fired-event counts per KernelBucketWidth of virtual
// time. The slice aliases tracer storage.
func (t *Tracer) KernelBuckets() []uint64 {
	if t == nil {
		return nil
	}
	return t.kernelBuckets
}

// RecordPhase adds one phase-latency sample for an application scope.
func (t *Tracer) RecordPhase(app string, p Phase, seconds float64) {
	if t == nil || p >= NumPhases || seconds < 0 {
		return
	}
	ps := t.phases[app]
	if ps == nil {
		ps = &PhaseSet{}
		t.phases[app] = ps
		t.phaseApp = append(t.phaseApp, app)
	}
	ps.D[p].Add(seconds)
}

// PhasesFor returns an application's phase distributions, or nil when the
// scope recorded no samples. The returned set aliases tracer storage.
func (t *Tracer) PhasesFor(app string) *PhaseSet {
	if t == nil {
		return nil
	}
	return t.phases[app]
}

// PhaseApps returns the scopes with recorded phase samples, in first-sample
// order (deterministic across same-seed runs).
func (t *Tracer) PhaseApps() []string {
	if t == nil {
		return nil
	}
	return t.phaseApp
}
