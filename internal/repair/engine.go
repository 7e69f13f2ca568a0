package repair

import (
	"fmt"
	"slices"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
)

// Translator propagates a committed model-level operation to the running
// system (Figure 1, arrow 5). Implementations live in internal/translator.
type Translator interface {
	Apply(op Op) error
}

// TranslatorFunc adapts a function to the Translator interface.
type TranslatorFunc func(op Op) error

// Apply implements Translator.
func (f TranslatorFunc) Apply(op Op) error { return f(op) }

// Record is one engine-level repair attempt: what HandleViolation returns
// and the Observer receives. The engine keeps one record and rewrites it on
// every attempt, so a *Record is valid until the next HandleViolation; a
// caller that keeps it longer copies it. The Applied and Ops of a committed
// record are its own and outlive the rewrite. The repair history drawn atop
// Figures 11–13 is the manager's spans, not the engine's records.
type Record struct {
	Time     float64
	Strategy string
	Subject  string
	Applied  []string
	Ops      []Op
	Err      error
	Damped   bool
}

// Engine matches violations to strategies and executes them with commit /
// abort semantics, plus the paper's §5.3 "future work" refinements:
//
//   - settling: after repairing a subject, further repairs on that subject
//     are suppressed for SettleTime seconds ("the effects of a repair on a
//     system will take time ... unnecessary repairs are likely to occur");
//   - oscillation damping: a client moved OscillationMoves times within
//     OscillationWindow gets an extended cooldown (the client ping-pong the
//     paper observed between 600 s and 1200 s);
//   - escalation: when no tactic applies, AlertFn is invoked instead of
//     thrashing ("alert a human observer for manual intervention").
//
// All three default off (zero values) so the baseline engine behaves exactly
// like the paper's prototype.
type Engine struct {
	Sys        *model.System
	Translator Translator

	SettleTime        float64
	OscillationWindow float64
	OscillationMoves  int
	DampFactor        float64
	AlertFn           func(v constraint.Violation, reason string)
	// Observer, when non-nil, receives the record of every attempt —
	// successful, failed and damped alike — the moment the attempt resolves,
	// under the same validity rule as HandleViolation's result. The
	// observability plane hangs its repair-decision spans off this hook;
	// nil (the default) costs one comparison per attempt.
	Observer func(rec *Record, v constraint.Violation, now float64)

	strategies map[string]*Strategy
	order      []string
	cooldown   map[string]float64   // subject -> earliest next repair time
	moveTimes  map[string][]float64 // client -> recent move times
	alerts     int
	// scratch is the transaction, context and record every
	// attempt reuses, so an attempt that repairs nothing allocates nothing.
	// It is made on the first attempt: an engine that never decides pays
	// for none of it.
	scratch *scratch
}

// NewEngine creates an engine over sys that pushes operations through tr.
func NewEngine(sys *model.System, tr Translator) *Engine {
	return &Engine{
		Sys:        sys,
		Translator: tr,
		strategies: map[string]*Strategy{},
		cooldown:   map[string]float64{},
		moveTimes:  map[string][]float64{},
	}
}

// Bind associates a strategy with an invariant name, the runtime analogue of
// the paper's `invariant r : ... !→ fixLatency(r)`.
func (e *Engine) Bind(invariantName string, s *Strategy) {
	if _, dup := e.strategies[invariantName]; !dup {
		e.order = append(e.order, invariantName)
	}
	e.strategies[invariantName] = s
}

// Alerts returns how many times the engine escalated to a human.
func (e *Engine) Alerts() int { return e.alerts }

// finish notifies the observer of the attempt's record and returns it.
func (e *Engine) finish(v constraint.Violation, now float64) *Record {
	rec := &e.scratch.rec
	if e.Observer != nil {
		e.Observer(rec, v, now)
	}
	return rec
}

// HandleViolation runs the bound strategy for one violation at time now.
// It returns the record of the attempt, valid until the next call (see
// Record), or nil when the violation was suppressed (cooldown) or had no
// bound strategy.
func (e *Engine) HandleViolation(v constraint.Violation, now float64) *Record {
	if v.Invariant == nil {
		return nil
	}
	s := e.strategies[v.Invariant.Name]
	if s == nil {
		return nil
	}
	subj := v.SubjectName()
	if until, ok := e.cooldown[subj]; ok && now < until {
		return nil
	}

	if e.scratch == nil {
		e.scratch = &scratch{}
	}
	ctx := e.scratch.open(e.Sys, v)
	rec := &e.scratch.rec
	*rec = Record{Time: now, Strategy: s.Name, Subject: subj}
	applied, err := s.run(ctx)
	if err != nil {
		rec.Err = err
		if err == ErrNoTacticApplied {
			e.alerts++
			if e.AlertFn != nil {
				e.AlertFn(v, "no applicable tactic")
			}
		}
		return e.finish(v, now)
	}

	// Propagate to the runtime layer; any failure aborts the model change so
	// model and system stay consistent.
	if e.Translator != nil {
		for _, op := range ctx.Txn.Ops() {
			if err := e.Translator.Apply(op); err != nil {
				_ = ctx.Txn.Abort()
				rec.Err = fmt.Errorf("repair: translate %s: %w", op, err)
				return e.finish(v, now)
			}
		}
	}
	rec.Applied = applied
	rec.Ops = slices.Clone(ctx.Txn.Ops()) // the transaction is reused

	// Settling & oscillation damping.
	cool := e.SettleTime
	for _, op := range rec.Ops {
		if op.Kind != OpMoveClient || e.OscillationWindow <= 0 || e.OscillationMoves <= 0 {
			continue
		}
		times := append(e.moveTimes[op.Client], now)
		cutoff := now - e.OscillationWindow
		kept := times[:0]
		for _, t := range times {
			if t >= cutoff {
				kept = append(kept, t)
			}
		}
		e.moveTimes[op.Client] = kept
		if len(kept) >= e.OscillationMoves {
			rec.Damped = true
			factor := e.DampFactor
			if factor < 1 {
				factor = 1
			}
			c := e.SettleTime * factor
			if c <= 0 {
				c = e.OscillationWindow
			}
			if c > cool {
				cool = c
			}
		}
	}
	if cool > 0 {
		e.cooldown[subj] = now + cool
	}
	return e.finish(v, now)
}

// HandleAll processes violations in order, stopping after the first
// successful repair (the paper's prototype "simply chose to repair the first
// client that reported an error"), and returns that repair's record — valid
// until the next HandleViolation — or nil when none succeeded. Failed
// attempts reach the Observer only. Sorting/prioritizing happens upstream in
// the manager when the smarter selection extension is enabled.
func (e *Engine) HandleAll(vs []constraint.Violation, now float64) *Record {
	for _, v := range vs {
		if r := e.HandleViolation(v, now); r != nil && r.Err == nil {
			return r
		}
	}
	return nil
}
