package script

import (
	"errors"
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/repair"
)

// Method is a style operator a statement invokes as `recv.method(args)`; it
// mutates the model through ctx's transaction.
type Method func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error

// OperatorSet supplies the style-specific pieces a script can call: Methods
// (addServer, move, remove, ...) and Funcs (findGoodSGrp, roleOf, ...)
// usable inside expressions.
type OperatorSet struct {
	Methods map[string]Method
	Funcs   map[string]func([]constraint.Value) (constraint.Value, error)
}

// Library is a compiled script: parsed and its calls checked. Bind turns one
// of its strategies into a repair.Strategy; one library serves any number of
// bindings.
type Library struct {
	defs   []*Def
	byName map[string]*Def
}

// errAbort unwinds an `abort` through the statements and expressions above
// it, with the statement in binding.abort. Control flow is a returned flag
// and this sentinel, so no statement allocates to leave a block.
var errAbort = errors.New("script: abort")

// Compile parses src and checks every call it makes against ops. Tactic
// definitions are callable from strategies and from each other.
func Compile(src string, ops OperatorSet) (*Library, error) {
	defs, err := ParseDefs(src)
	if err != nil {
		return nil, err
	}
	lib := &Library{defs: defs, byName: map[string]*Def{}}
	strategies := 0
	for i, d := range defs {
		if _, dup := lib.byName[d.Name]; dup {
			return nil, fmt.Errorf("script:%d: duplicate definition of %q", d.line, d.Name)
		}
		d.index = i
		lib.byName[d.Name] = d
		switch {
		case d.Kind == "tactic":
		case len(d.params) > 1:
			return nil, fmt.Errorf("script:%d: strategy %s takes one parameter, the violation subject, not %d", d.line, d.Name, len(d.params))
		default:
			strategies++
		}
	}
	if strategies == 0 {
		return nil, fmt.Errorf("script: no strategies defined")
	}
	if err := lib.check(ops); err != nil {
		return nil, err
	}
	return lib, nil
}

// check rejects, at its line, a call a run on ops would otherwise fail on in
// the middle of a repair: a statement calling an unknown procedure or
// method, or a tactic called with the wrong number of arguments.
func (lib *Library) check(ops OperatorSet) error {
	for _, d := range lib.defs {
		for _, c := range d.calls {
			t := lib.byName[c.name]
			tactic := t != nil && t.Kind == "tactic"
			switch {
			case c.method:
				if ops.Methods[c.name] == nil {
					return fmt.Errorf("script:%d: unknown method %q", c.line, c.name)
				}
			case c.stmt && !tactic && ops.Funcs[c.name] == nil:
				return fmt.Errorf("script:%d: unknown procedure %q", c.line, c.name)
			case tactic && c.nargs != len(t.params):
				return fmt.Errorf("script:%d: tactic %s takes %d arguments, not %d", c.line, c.name, len(t.params), c.nargs)
			}
		}
	}
	return nil
}

// Bind returns the named strategy running on ops, which must supply what
// the strategy calls, as Compile's did. A binding keeps one frame per
// definition and reuses it on every run, so a run that declines allocates
// nothing; a tactic therefore cannot call itself, directly or through
// another.
func (lib *Library) Bind(name string, ops OperatorSet) (*repair.Strategy, error) {
	d := lib.byName[name]
	if d == nil || d.Kind != "strategy" {
		return nil, fmt.Errorf("script: no strategy %q", name)
	}
	if err := lib.check(ops); err != nil {
		return nil, err
	}
	b := &binding{
		methods: ops.Methods,
		funcs:   make(map[string]func([]constraint.Value) (constraint.Value, error), len(ops.Funcs)+len(lib.defs)),
		frames:  make([]frame, len(lib.defs)),
	}
	for fn, f := range ops.Funcs {
		b.funcs[fn] = f
	}
	for _, t := range lib.defs {
		if t.Kind == "tactic" {
			b.funcs[t.Name] = func(args []constraint.Value) (constraint.Value, error) { return b.tactic(t, args) }
		}
	}
	return &repair.Strategy{Name: d.Name, Script: func(ctx *repair.Context) ([]string, error) {
		return b.strategy(d, ctx)
	}}, nil
}

// binding is one Bind's state: its operators, the functions its
// expressions call (style funcs and tactics) and its frames, and while a
// strategy runs, the repair context, the tactics that have applied and the
// abort being unwound.
type binding struct {
	methods map[string]Method
	funcs   map[string]func([]constraint.Value) (constraint.Value, error)
	frames  []frame // by Def.index
	ctx     *repair.Context
	applied []string
	abort   *abortStmt
}

// frame is one definition's scope, reused run to run. args holds the
// arguments of the statement call in progress: nothing re-enters a frame
// while it runs one.
type frame struct {
	env  constraint.Env
	args []constraint.Value
	ret  constraint.Value
	busy bool
}

// strategy runs strategy d against ctx, its parameter bound to the
// violation subject (the engine's analogue of `invariant r : ... !→
// fixLatency(r)`). A commit or a true return applies; falling off the end,
// a false return, or `abort ModelError` before any tactic applied is
// repair.ErrNoTacticApplied; any other abort fails the strategy.
func (b *binding) strategy(d *Def, ctx *repair.Context) ([]string, error) {
	subject := [1]constraint.Value{constraint.Elem(ctx.Violation.Subject)}
	b.ctx, b.applied = ctx, nil
	returned, ret, err := b.invoke(d, subject[:len(d.params)])
	switch {
	case err == errAbort:
		if b.abort.reason == "ModelError" && len(b.applied) == 0 {
			return nil, repair.ErrNoTacticApplied
		}
		return nil, b.abort.err
	case err != nil:
		return nil, err
	case returned:
		ok, err := ret.Truthy()
		if err != nil {
			return nil, err
		}
		if ok {
			return b.applied, nil
		}
	}
	return nil, repair.ErrNoTacticApplied
}

// tactic runs tactic d on evaluated arguments and returns its result:
// what it returns, true on a commit, false when it falls off its end. A
// true result adds it to the tactics that applied.
func (b *binding) tactic(d *Def, args []constraint.Value) (constraint.Value, error) {
	returned, v, err := b.invoke(d, args)
	if err != nil {
		return constraint.Nil(), err
	}
	if !returned {
		v = constraint.Bool(false)
	}
	if v.Kind() == constraint.KBool && v.Bool() {
		b.applied = append(b.applied, d.Name)
	}
	return v, nil
}

// invoke runs d's body in its frame, with `it` bound to the violation
// subject and d's parameters to args, and reports whether it returned, and
// what.
func (b *binding) invoke(d *Def, args []constraint.Value) (bool, constraint.Value, error) {
	f := &b.frames[d.index]
	if f.busy {
		return false, constraint.Nil(), fmt.Errorf("script: tactic %s calls itself", d.Name)
	}
	f.busy = true
	f.env.Reset()
	f.env.Sys, f.env.Funcs = b.ctx.Sys, b.funcs
	if subj := b.ctx.Violation.Subject; subj != nil {
		f.env.Bind("it", constraint.Elem(subj))
	}
	for i, p := range d.params {
		f.env.Bind(p, args[i])
	}
	returned, err := b.exec(f, d.body)
	f.busy = false
	return returned, f.ret, err
}

// exec runs stmts until one returns, leaving the value in f.ret. `commit
// repair` is `return true`.
func (b *binding) exec(f *frame, stmts []stmt) (bool, error) {
	for _, s := range stmts {
		if returned, err := b.execOne(f, s); returned || err != nil {
			return returned, err
		}
	}
	return false, nil
}

func (b *binding) execOne(f *frame, s stmt) (bool, error) {
	switch st := s.(type) {
	case *letStmt:
		v, err := constraint.Eval(st.expr, &f.env)
		if err != nil {
			return false, err
		}
		f.env.Bind(st.name, v)
	case *ifStmt:
		ok, err := constraint.EvalBool(st.cond, &f.env)
		if err != nil {
			return false, err
		}
		if ok {
			return b.exec(f, st.then)
		}
		return b.exec(f, st.els)
	case *foreachStmt:
		dom, err := constraint.Eval(st.domain, &f.env)
		if err != nil {
			return false, err
		}
		if dom.Kind() != constraint.KSet {
			return false, fmt.Errorf("script:%d: foreach over non-set %s", st.line, dom)
		}
		for _, v := range dom.Set() {
			f.env.Bind(st.varName, v)
			if returned, err := b.exec(f, st.body); returned || err != nil {
				return returned, err
			}
		}
	case *returnStmt:
		v, err := constraint.Eval(st.expr, &f.env)
		if err != nil {
			return false, err
		}
		f.ret = v
		return true, nil
	case *commitStmt:
		f.ret = constraint.Bool(true)
		return true, nil
	case *abortStmt:
		b.abort = st
		return false, errAbort
	case *callStmt:
		return false, b.call(f, st)
	}
	return false, nil
}

// call runs a statement-level call: a method on a receiver, or a tactic or
// style func as a procedure. Compile checked that the name exists.
func (b *binding) call(f *frame, st *callStmt) error {
	f.args = f.args[:0]
	for _, a := range st.args {
		v, err := constraint.Eval(a, &f.env)
		if err != nil {
			return err
		}
		f.args = append(f.args, v)
	}
	if st.recv == nil {
		_, err := b.funcs[st.method](f.args)
		return err
	}
	recv, err := constraint.Eval(st.recv, &f.env)
	if err != nil {
		return err
	}
	return b.methods[st.method](b.ctx, recv, f.args)
}
