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

// Strategy is a repair bound to a constraint (Fig. 5's `strategy
// fixLatency`). Its Script is the whole strategy: it calls its own tactics —
// guarded repairs whose precondition pinpoints the cause and whose body
// mutates the model through ctx.Txn — and sequences them itself, applying
// the first that succeeds or running through all of them (§3.2). It returns
// the names of the tactics that applied, or an error: ErrNoTacticApplied
// when none did, any other error being the paper's `abort ModelError`.
type Strategy struct {
	Name   string
	Script func(ctx *Context) (applied []string, err error)
}

// ErrNoTacticApplied reports that every tactic declined: the situation the
// paper flags for human escalation ("it may be necessary to alert a human
// observer", §7).
var ErrNoTacticApplied = errors.New("repair: " + AlertReason)

// AlertReason is the reason of every escalation an Engine raises.
const AlertReason = "no applicable tactic"

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
	if applied, err = s.Script(ctx); err != nil {
		if rbErr := ctx.Txn.Abort(); rbErr != nil && err != ErrNoTacticApplied {
			err = fmt.Errorf("%w (and %v)", err, rbErr)
		}
		return nil, err
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
