package repair

import (
	"errors"
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
)

// Context is what a tactic sees: the live model (via the transaction) and
// the triggering violation.
type Context struct {
	Sys       *model.System
	Violation constraint.Violation
	Txn       *Txn
}

// Tactic is one guarded repair (Fig. 5: fixServerLoad, fixBandwidth). Its
// precondition pinpoints the cause; its script mutates the model through the
// transaction. Script returning (false, nil) means the tactic examined the
// system and concluded it does not apply — the strategy moves on. An error
// aborts the whole strategy (the paper's `abort ModelError`).
type Tactic struct {
	Name string
	// Script runs the guarded repair. It returns whether the tactic applied.
	Script func(ctx *Context) (bool, error)
}

// Policy selects how a strategy sequences its tactics.
type Policy int

// Strategy policies (§3.2: "It might apply the first tactic that succeeds.
// Alternatively, it might sequence through all of the tactics.").
const (
	FirstSuccess Policy = iota
	TryAll
)

// Strategy is a repair bound to a constraint: an ordered list of tactics
// sequenced under a policy, or a script.
type Strategy struct {
	Name    string
	Policy  Policy
	Tactics []*Tactic
	// Script, when set, is the whole strategy — a compiled Figure 5 body
	// that calls tactics of its own — and Policy and Tactics are unused. It
	// returns the names of the tactics that applied, or an error:
	// ErrNoTacticApplied when none did.
	Script func(ctx *Context) (applied []string, err error)
}

// ErrNoTacticApplied reports that every tactic declined: the situation the
// paper flags for human escalation ("it may be necessary to alert a human
// observer", §7).
var ErrNoTacticApplied = errors.New("repair: no applicable tactic")

// Execute runs the strategy transactionally outside an engine: on success
// the record holds the transaction's ops for translation; on failure (Err is
// ErrNoTacticApplied or the script's error) the model is rolled back.
func (s *Strategy) Execute(sys *model.System, v constraint.Violation) Record {
	var sc scratch
	ctx := sc.open(sys, v)
	rec := Record{Strategy: s.Name, Subject: v.SubjectName()}
	if rec.Applied, rec.Err = s.run(ctx); rec.Err == nil {
		rec.Ops = ctx.Txn.Ops()
	}
	return rec
}

// run executes the strategy in ctx and returns the names of the tactics
// that applied. A script error, or no tactic applying (ErrNoTacticApplied),
// rolls the transaction back. Nothing is allocated until a tactic applies.
func (s *Strategy) run(ctx *Context) (applied []string, err error) {
	if s.Script != nil {
		applied, err = s.Script(ctx)
	} else {
		applied, err = s.sequence(ctx)
	}
	if err != nil {
		if rbErr := ctx.Txn.Abort(); rbErr != nil && err != ErrNoTacticApplied {
			err = fmt.Errorf("%w (and %v)", err, rbErr)
		}
		return nil, err
	}
	return applied, nil
}

// sequence runs the tactics under the strategy's policy.
func (s *Strategy) sequence(ctx *Context) (applied []string, err error) {
	for _, tac := range s.Tactics {
		ok, err := tac.Script(ctx)
		if err != nil {
			return nil, fmt.Errorf("repair: tactic %s: %w", tac.Name, err)
		}
		if !ok {
			continue
		}
		applied = append(applied, tac.Name)
		if s.Policy == FirstSuccess {
			break
		}
	}
	if len(applied) == 0 {
		return nil, ErrNoTacticApplied
	}
	return applied, nil
}

// scratch is what one strategy execution works in: its transaction and
// tactic context, plus the engine's record of the attempt. The engine keeps
// one and reopens it for every attempt.
type scratch struct {
	txn Txn
	ctx Context
	rec Record
}

// open resets the scratch for one execution against v and returns its
// context.
func (sc *scratch) open(sys *model.System, v constraint.Violation) *Context {
	sc.txn.reset(sys)
	sc.ctx = Context{Sys: sys, Violation: v, Txn: &sc.txn}
	return &sc.ctx
}
