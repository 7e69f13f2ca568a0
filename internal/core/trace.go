package core

import (
	"sort"

	"archadapt/internal/bus"
	"archadapt/internal/constraint"
	"archadapt/internal/obs"
	"archadapt/internal/repair"
)

// This file is the manager's attachment to the observability plane
// (internal/obs). Every hook is gated on m.tr != nil: with tracing off the
// manager performs one pointer comparison per call site and is otherwise
// byte-identical to the untraced build (asserted by the fleet purity tests).
//
// Span chain produced per adaptation episode, rooted in the monitoring plane
// (the bus stamps probe samples and gauge reports, gauges stamp updates):
//
//	probe.sample → gauge.update → gauge.report → model.update → violation
//	  → repair.decide (tactic*, op*) → repair [open across gauge churn]
//	  → recover [open until the first all-clear check]
//
// Phase samples: detect = probe sample (or model update) → first violating
// check; decide = episode open → repair commit; drain = gauge-churn extent;
// recover = churn done → first healthy check. Each sample reads its start
// from a recorded span's Start; the spans are the only timestamps kept.

// traceState is the manager's per-episode bookkeeping. Allocated only when a
// tracer is configured.
type traceState struct {
	lastReport     map[string]obs.SpanID // model subject -> newest model.update
	violSpan       map[string]obs.SpanID // open episode -> violation span
	pendingRecover map[string]obs.SpanID // repaired subject -> open recover span
	lastDecision   obs.SpanID            // newest repair.decide (engine observer)
	scratch        map[string]bool       // per-check violating-subject set
}

// traceInit attaches the manager to cfg.Tracer: allocates episode state and
// installs the repair-engine observer that emits decision spans.
func (m *Manager) traceInit(app string) {
	m.tr = m.Cfg.Tracer
	m.trApp = app
	m.trState = &traceState{
		lastReport:     map[string]obs.SpanID{},
		violSpan:       map[string]obs.SpanID{},
		pendingRecover: map[string]obs.SpanID{},
		scratch:        map[string]bool{},
	}
	m.Engine.Observer = func(rec *repair.Record, v constraint.Violation, now float64) {
		st := m.trState
		name := rec.Strategy
		if name == "" {
			name = "none"
		}
		dec := m.tr.Instant(obs.KindRepairDecide, st.violSpan[rec.Subject], m.trApp,
			name+"/"+rec.Subject, float64(len(rec.Applied)), float64(len(rec.Ops)))
		for _, tac := range rec.Applied {
			m.tr.Instant(obs.KindTactic, dec, m.trApp, tac, 0, 0)
		}
		for _, op := range rec.Ops {
			m.tr.Instant(obs.KindOp, dec, m.trApp, op.String(), 0, 0)
		}
		st.lastDecision = dec
	}
}

// traceModelUpdate records one gauge report landing in the model: a
// model.update span parented on the report's bus span, remembered per model
// subject so the next violation on that subject can chain to it.
func (m *Manager) traceModelUpdate(msg bus.Message, subject string) {
	m.trState.lastReport[subject] = m.tr.Instant(obs.KindModelUpdate, msg.Span, m.trApp, subject+"/"+msg.Prop, msg.V1, 0)
}

// traceCheck reconciles episode state against one check's violation set:
// opens episodes (violation span + detect-phase sample) for new subjects and
// closes episodes for subjects that stopped violating, resolving any pending
// recovery span. Close order is sorted for cross-run determinism.
func (m *Manager) traceCheck(vs []constraint.Violation, now float64) {
	st := m.trState
	for k := range st.scratch {
		delete(st.scratch, k)
	}
	for _, v := range vs {
		subj := v.SubjectName()
		st.scratch[subj] = true
		if _, open := st.violSpan[subj]; open {
			continue
		}
		report := st.lastReport[subj]
		inv := "?"
		if v.Invariant != nil {
			inv = v.Invariant.Name
		}
		st.violSpan[subj] = m.tr.Instant(obs.KindViolation, report, m.trApp, subj+"/"+inv, 0, 0)
		if start, ok := m.tr.Origin(report); ok {
			m.tr.RecordPhase(m.trApp, obs.PhaseDetect, now-start)
		}
	}
	var closed []string
	for subj := range st.violSpan {
		if !st.scratch[subj] {
			closed = append(closed, subj)
		}
	}
	sort.Strings(closed)
	for _, subj := range closed {
		delete(st.violSpan, subj)
		if rc, ok := st.pendingRecover[subj]; ok {
			delete(st.pendingRecover, subj)
			m.tr.EndSpan(rc)
			m.tr.RecordPhase(m.trApp, obs.PhaseRecover, now-m.tr.StartOf(rc))
		}
	}
}

// traceRepairBegin marks a committed repair: a decide-phase sample (episode
// open → commit) and an open repair span, parented on the engine observer's
// decision span, that traceRepairDone closes when gauge churn completes.
func (m *Manager) traceRepairBegin(rec *repair.Record, now float64) obs.SpanID {
	st := m.trState
	if viol, ok := st.violSpan[rec.Subject]; ok {
		m.tr.RecordPhase(m.trApp, obs.PhaseDecide, now-m.tr.StartOf(viol))
	}
	return m.tr.Begin(obs.KindRepair, st.lastDecision, m.trApp, rec.Strategy+"/"+rec.Subject, 0, 0)
}

// traceRepairDone closes the repair span at churn completion, records the
// drain phase, and opens the recovery span that the first post-repair healthy
// check will close.
func (m *Manager) traceRepairDone(rec *repair.Record, span obs.SpanID) {
	now := m.K.Now()
	m.tr.EndSpan(span)
	m.tr.RecordPhase(m.trApp, obs.PhaseDrain, now-m.tr.StartOf(span))
	st := m.trState
	if old, ok := st.pendingRecover[rec.Subject]; ok {
		// A repeat repair superseded an unresolved recovery: close the stale
		// span at the new repair's completion.
		m.tr.EndSpan(old)
	}
	st.pendingRecover[rec.Subject] = m.tr.Begin(obs.KindRecover, span, m.trApp, "recover/"+rec.Subject, 0, 0)
}
