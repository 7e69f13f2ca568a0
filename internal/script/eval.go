package script

import (
	"errors"
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/repair"
)

// Method is a style operator invocable as `recv.method(args)` in a script;
// it mutates the model through the transaction in ctx.
type Method func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error

// OperatorSet supplies the style-specific pieces a script can call:
// Methods (addServer, move, remove, ...) and Funcs (findGoodSGrp, roleOf,
// ...) usable inside expressions.
type OperatorSet struct {
	Methods map[string]Method
	Funcs   map[string]func([]constraint.Value) (constraint.Value, error)
}

// Library is a compiled script: its strategies are ready to bind to
// invariants on the repair engine.
type Library struct {
	Strategies map[string]*repair.Strategy
	Tactics    map[string]*Def
	defs       []*Def
	ops        OperatorSet
}

// control-flow signals inside the interpreter.
var (
	errCommit = errors.New("script: commit")
)

type returnSignal struct{ val constraint.Value }

func (returnSignal) Error() string { return "script: return" }

type abortSignal struct{ reason string }

func (a abortSignal) Error() string { return "script: abort " + a.reason }

// Compile parses src and compiles every strategy into a repair.Strategy
// whose single engine-level tactic runs the script body. Tactic definitions
// are callable from strategies (and from each other).
func Compile(src string, ops OperatorSet) (*Library, error) {
	defs, err := ParseDefs(src)
	if err != nil {
		return nil, err
	}
	lib := &Library{
		Strategies: map[string]*repair.Strategy{},
		Tactics:    map[string]*Def{},
		defs:       defs,
		ops:        ops,
	}
	for _, d := range defs {
		if d.Kind == "tactic" {
			if _, dup := lib.Tactics[d.Name]; dup {
				return nil, fmt.Errorf("script: duplicate tactic %q", d.Name)
			}
			lib.Tactics[d.Name] = d
		}
	}
	for _, d := range defs {
		if d.Kind != "strategy" {
			continue
		}
		if _, dup := lib.Strategies[d.Name]; dup {
			return nil, fmt.Errorf("script: duplicate strategy %q", d.Name)
		}
		d := d
		lib.Strategies[d.Name] = &repair.Strategy{
			Name:   d.Name,
			Policy: repair.FirstSuccess,
			Tactics: []*repair.Tactic{{
				Name: d.Name + "Body",
				Script: func(ctx *repair.Context) (bool, error) {
					return lib.runStrategy(d, ctx)
				},
			}},
		}
	}
	if len(lib.Strategies) == 0 {
		return nil, fmt.Errorf("script: no strategies defined")
	}
	return lib, nil
}

// frame is one lexical execution scope.
type frame struct {
	vars map[string]constraint.Value
	lib  *Library
	ctx  *repair.Context
}

func (lib *Library) newFrame(ctx *repair.Context) *frame {
	return &frame{vars: map[string]constraint.Value{}, lib: lib, ctx: ctx}
}

// env assembles a constraint evaluation environment from the frame: script
// variables, the violation subject as `it`, style funcs, and tactic
// invocation as expression-level calls.
func (f *frame) env() *constraint.Env {
	env := constraint.NewEnv(f.ctx.Sys)
	env.Funcs = map[string]func([]constraint.Value) (constraint.Value, error){}
	for name, fn := range f.lib.ops.Funcs {
		env.Funcs[name] = fn
	}
	for name, fn := range f.ctx.Env.Funcs {
		if _, have := env.Funcs[name]; !have {
			env.Funcs[name] = fn
		}
	}
	for name, d := range f.lib.Tactics {
		d := d
		env.Funcs[name] = func(args []constraint.Value) (constraint.Value, error) {
			return f.lib.callTactic(d, f.ctx, args)
		}
	}
	if f.ctx.Violation.Subject != nil {
		env.Bind("it", constraint.Elem(f.ctx.Violation.Subject))
	}
	for k, v := range f.vars {
		env.Bind(k, v)
	}
	return env
}

func (f *frame) eval(e constraint.Expr) (constraint.Value, error) {
	return constraint.Eval(e, f.env())
}

// runStrategy executes a strategy body. Commit ⇒ applied; fallthrough (no
// commit) ⇒ not applied; abort ⇒ error (engine rolls back).
func (lib *Library) runStrategy(d *Def, ctx *repair.Context) (bool, error) {
	f := lib.newFrame(ctx)
	if err := bindParams(f, d, ctx); err != nil {
		return false, err
	}
	err := f.exec(d.body)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errCommit):
		return true, nil
	default:
		var ret returnSignal
		if errors.As(err, &ret) {
			ok, terr := ret.val.Truthy()
			if terr != nil {
				return false, terr
			}
			return ok, nil
		}
		var ab abortSignal
		if errors.As(err, &ab) {
			return false, fmt.Errorf("script: strategy %s aborted: %s", d.Name, ab.reason)
		}
		return false, err
	}
}

// callTactic invokes a tactic definition with evaluated arguments and
// returns its boolean result.
func (lib *Library) callTactic(d *Def, ctx *repair.Context, args []constraint.Value) (constraint.Value, error) {
	if len(args) != len(d.params) {
		return constraint.Nil(), fmt.Errorf("script: tactic %s wants %d args, got %d", d.Name, len(d.params), len(args))
	}
	f := lib.newFrame(ctx)
	for i, p := range d.params {
		f.vars[p.name] = args[i]
	}
	err := f.exec(d.body)
	switch {
	case err == nil:
		return constraint.Bool(false), nil
	case errors.Is(err, errCommit):
		return constraint.Bool(true), nil
	default:
		var ret returnSignal
		if errors.As(err, &ret) {
			return ret.val, nil
		}
		return constraint.Nil(), err
	}
}

// bindParams binds a strategy's first parameter to the violation subject
// (the engine's analogue of `invariant r : ... !→ fixLatency(r)`).
func bindParams(f *frame, d *Def, ctx *repair.Context) error {
	if len(d.params) == 0 {
		return nil
	}
	if len(d.params) > 1 {
		return fmt.Errorf("script: strategy %s: only one parameter (the violation subject) is supported", d.Name)
	}
	if ctx.Violation.Subject == nil {
		return fmt.Errorf("script: strategy %s needs a violation subject", d.Name)
	}
	f.vars[d.params[0].name] = constraint.Elem(ctx.Violation.Subject)
	return nil
}

func (f *frame) exec(stmts []stmt) error {
	for _, s := range stmts {
		if err := f.execOne(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *frame) execOne(s stmt) error {
	switch st := s.(type) {
	case *letStmt:
		v, err := f.eval(st.expr)
		if err != nil {
			return err
		}
		f.vars[st.name] = v
		return nil
	case *ifStmt:
		cond, err := f.eval(st.cond)
		if err != nil {
			return err
		}
		ok, err := cond.Truthy()
		if err != nil {
			return err
		}
		if ok {
			return f.exec(st.then)
		}
		return f.exec(st.els)
	case *foreachStmt:
		dom, err := f.eval(st.domain)
		if err != nil {
			return err
		}
		if dom.Kind() != constraint.KSet {
			return fmt.Errorf("script: foreach over non-set %s", dom)
		}
		saved, had := f.vars[st.varName]
		for _, v := range dom.Set() {
			f.vars[st.varName] = v
			if err := f.exec(st.body); err != nil {
				return err
			}
		}
		if had {
			f.vars[st.varName] = saved
		} else {
			delete(f.vars, st.varName)
		}
		return nil
	case *returnStmt:
		v, err := f.eval(st.expr)
		if err != nil {
			return err
		}
		return returnSignal{val: v}
	case *commitStmt:
		return errCommit
	case *abortStmt:
		return abortSignal{reason: st.reason}
	case *callStmt:
		return f.call(st)
	}
	return fmt.Errorf("script: unknown statement %T", s)
}

func (f *frame) call(st *callStmt) error {
	args := make([]constraint.Value, len(st.args))
	for i, a := range st.args {
		v, err := f.eval(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if st.recv == "" {
		// Procedure call: a tactic or an expression-level function used as
		// a statement.
		env := f.env()
		fn, ok := env.Funcs[st.method]
		if !ok {
			return fmt.Errorf("script: unknown procedure %q", st.method)
		}
		_, err := fn(args)
		return err
	}
	recv, ok := f.vars[st.recv]
	if !ok {
		return fmt.Errorf("script: unknown receiver %q", st.recv)
	}
	m, ok := f.lib.ops.Methods[st.method]
	if !ok {
		return fmt.Errorf("script: unknown operator %q", st.method)
	}
	return m(f.ctx, recv, args)
}
