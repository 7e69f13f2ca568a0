package repair

import (
	"errors"
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
)

// Context is what a tactic sees: the live model (via the transaction), the
// triggering violation, and an expression environment for architecture
// queries (select/connected/attached plus style-specific functions such as
// findGoodSGrp).
type Context struct {
	Sys       *model.System
	Violation constraint.Violation
	Txn       *Txn
	Env       *constraint.Env
	Now       float64
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

// Strategy is an ordered list of tactics bound to a constraint.
type Strategy struct {
	Name    string
	Policy  Policy
	Tactics []*Tactic
}

// ErrNoTacticApplied reports that every tactic declined: the situation the
// paper flags for human escalation ("it may be necessary to alert a human
// observer", §7).
var ErrNoTacticApplied = errors.New("repair: no applicable tactic")

// Outcome describes one strategy execution.
type Outcome struct {
	Strategy string
	// Applied lists the names of tactics whose scripts ran to completion.
	Applied []string
	// Ops are the committed semantic operations (empty when aborted).
	Ops []Op
	// Err is nil on commit; ErrNoTacticApplied or a script error on abort.
	Err error
}

// Execute runs the strategy transactionally: on success the transaction's
// ops are returned for translation; on failure the model is rolled back.
func (s *Strategy) Execute(sys *model.System, v constraint.Violation, funcs map[string]func([]constraint.Value) (constraint.Value, error), now float64) Outcome {
	var sc scratch
	ctx := sc.open(sys, v, funcs, now)
	out := Outcome{Strategy: s.Name}
	if out.Applied, out.Err = s.run(ctx); out.Err == nil {
		out.Ops = ctx.Txn.Ops()
	}
	return out
}

// run sequences the tactics in ctx under the strategy's policy and returns
// the names of those that applied. A script error, or no tactic applying
// (ErrNoTacticApplied), rolls the transaction back. Nothing is allocated
// until a tactic applies.
func (s *Strategy) run(ctx *Context) (applied []string, err error) {
	for _, tac := range s.Tactics {
		ok, err := tac.Script(ctx)
		if err != nil {
			if rbErr := ctx.Txn.Abort(); rbErr != nil {
				err = fmt.Errorf("%w (and %v)", err, rbErr)
			}
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
		_ = ctx.Txn.Abort()
		return nil, ErrNoTacticApplied
	}
	return applied, nil
}

// scratch is what one strategy execution works in: its transaction,
// expression environment and tactic context, plus the engine's record of the
// attempt. The engine keeps one and reopens it for every attempt.
type scratch struct {
	txn Txn
	env constraint.Env
	ctx Context
	rec Record
}

// open resets the scratch for one execution against v and returns its
// context, with `it` bound to the violation subject.
func (sc *scratch) open(sys *model.System, v constraint.Violation, funcs map[string]func([]constraint.Value) (constraint.Value, error), now float64) *Context {
	sc.txn.reset(sys)
	sc.env.Reset()
	sc.env.Sys, sc.env.Funcs = sys, funcs
	if v.Subject != nil {
		sc.env.Bind("it", constraint.Elem(v.Subject))
	}
	sc.ctx = Context{Sys: sys, Violation: v, Txn: &sc.txn, Env: &sc.env, Now: now}
	return &sc.ctx
}
