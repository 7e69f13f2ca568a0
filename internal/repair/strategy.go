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

// Query evaluates a constraint-language expression against the model with
// `it` bound to the violation subject.
func (c *Context) Query(src string) (constraint.Value, error) {
	e, err := constraint.Parse(src)
	if err != nil {
		return constraint.Nil(), err
	}
	return constraint.Eval(e, c.Env)
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
	txn := NewTxn(sys)
	env := constraint.NewEnv(sys)
	if funcs != nil {
		env.Funcs = funcs
	}
	if v.Subject != nil {
		env.Bind("it", constraint.Elem(v.Subject))
	}
	ctx := &Context{Sys: sys, Violation: v, Txn: txn, Env: env, Now: now}
	out := Outcome{Strategy: s.Name}
	for _, tac := range s.Tactics {
		applied, err := tac.Script(ctx)
		if err != nil {
			if rbErr := txn.Abort(); rbErr != nil {
				err = fmt.Errorf("%w (and %v)", err, rbErr)
			}
			out.Err = fmt.Errorf("repair: tactic %s: %w", tac.Name, err)
			out.Applied = nil
			return out
		}
		if !applied {
			continue
		}
		out.Applied = append(out.Applied, tac.Name)
		if s.Policy == FirstSuccess {
			break
		}
	}
	if len(out.Applied) == 0 {
		_ = txn.Abort()
		out.Err = ErrNoTacticApplied
		return out
	}
	out.Ops = txn.Ops()
	return out
}
