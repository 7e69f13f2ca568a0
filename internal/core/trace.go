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
// recover = churn done → first healthy check.

// reportRef remembers the newest model.update span per model subject, so a
// violation can parent on the observation that triggered it.
type reportRef struct {
	span obs.SpanID
	at   float64
}

// recoverRef is an open recovery span awaiting the subject's first healthy
// check.
type recoverRef struct {
	span obs.SpanID
	at   float64
}

// traceState is the manager's per-episode bookkeeping. Allocated only when a
// tracer is configured.
type traceState struct {
	lastReport     map[string]reportRef  // model subject -> newest model.update
	violSpan       map[string]obs.SpanID // open episode -> violation span
	violSince      map[string]float64    // open episode -> first violating check
	pendingRecover map[string]recoverRef // repaired subject -> open recover span
	lastDecision   obs.SpanID            // newest repair.decide (engine observer)
	scratch        map[string]bool       // per-check violating-subject set
}

// traceInit attaches the manager to cfg.Tracer: allocates episode state and
// installs the repair-engine observer that emits decision spans.
func (m *Manager) traceInit(app string) {
	m.tr = m.Cfg.Tracer
	m.trApp = app
	m.trState = &traceState{
		lastReport:     map[string]reportRef{},
		violSpan:       map[string]obs.SpanID{},
		violSince:      map[string]float64{},
		pendingRecover: map[string]recoverRef{},
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
	upd := m.tr.Instant(obs.KindModelUpdate, msg.Span, m.trApp, subject+"/"+msg.Prop, msg.V1, 0)
	m.trState.lastReport[subject] = reportRef{span: upd, at: m.K.Now()}
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
		if _, open := st.violSince[subj]; open {
			continue
		}
		st.violSince[subj] = now
		ref := st.lastReport[subj]
		inv := "?"
		if v.Invariant != nil {
			inv = v.Invariant.Name
		}
		st.violSpan[subj] = m.tr.Instant(obs.KindViolation, ref.span, m.trApp, subj+"/"+inv, 0, 0)
		if ref.span != 0 {
			// Detect latency runs from the observation's origin — the probe
			// sample when one exists (bandwidth updates are rooted at the
			// Remos reply) — to this first violating check.
			start := ref.at
			if anc, ok := m.tr.Ancestor(ref.span, obs.KindProbeSample); ok {
				start = anc.Start
			}
			m.tr.RecordPhase(m.trApp, obs.PhaseDetect, now-start)
		}
	}
	var closed []string
	for subj := range st.violSince {
		if !st.scratch[subj] {
			closed = append(closed, subj)
		}
	}
	sort.Strings(closed)
	for _, subj := range closed {
		delete(st.violSince, subj)
		delete(st.violSpan, subj)
		if pr, ok := st.pendingRecover[subj]; ok {
			delete(st.pendingRecover, subj)
			m.tr.EndSpan(pr.span)
			m.tr.RecordPhase(m.trApp, obs.PhaseRecover, now-pr.at)
		}
	}
}

// traceRepairBegin marks a committed repair: a decide-phase sample (episode
// open → commit) and an open repair span, parented on the engine observer's
// decision span, that traceRepairDone closes when gauge churn completes.
func (m *Manager) traceRepairBegin(rec *repair.Record, now float64) obs.SpanID {
	st := m.trState
	if since, ok := st.violSince[rec.Subject]; ok {
		m.tr.RecordPhase(m.trApp, obs.PhaseDecide, now-since)
	}
	return m.tr.Begin(obs.KindRepair, st.lastDecision, m.trApp, rec.Strategy+"/"+rec.Subject, 0, 0)
}

// traceRepairDone closes the repair span at churn completion, records the
// drain phase, and opens the recovery span that the first post-repair healthy
// check will close.
func (m *Manager) traceRepairDone(rec *repair.Record, span obs.SpanID, start float64) {
	now := m.K.Now()
	m.tr.EndSpan(span)
	m.tr.RecordPhase(m.trApp, obs.PhaseDrain, now-start)
	st := m.trState
	if old, ok := st.pendingRecover[rec.Subject]; ok {
		// A repeat repair superseded an unresolved recovery: close the stale
		// span at the new repair's completion.
		m.tr.EndSpan(old.span)
	}
	rc := m.tr.Begin(obs.KindRecover, span, m.trApp, "recover/"+rec.Subject, 0, 0)
	st.pendingRecover[rec.Subject] = recoverRef{span: rc, at: now}
}
