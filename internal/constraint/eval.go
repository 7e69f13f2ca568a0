package constraint

import (
	"fmt"
	"sort"

	"archadapt/internal/model"
)

// Env is an evaluation environment: variable bindings layered over a system,
// plus optional external functions (style-specific queries such as the
// paper's findGoodSGrp, which consults the runtime layer). An Env reused
// across evaluations keeps its storage, so a warm evaluation that builds no
// set allocates nothing.
type Env struct {
	Sys *model.System
	// vars holds the bindings innermost last; a scope has a handful, so a
	// backwards scan resolves a name faster than hashing it would. A
	// quantifier pushes its variable here and pops it when done.
	vars []binding
	// args is the argument stack calls evaluate onto; a function sees its
	// arguments as a slice of it, valid only during the call.
	args  []Value
	Funcs map[string]func(args []Value) (Value, error)
}

type binding struct {
	name string
	val  Value
}

// NewEnv creates an environment rooted at sys with `self` bound to it.
func NewEnv(sys *model.System) *Env {
	return &Env{Sys: sys, Funcs: map[string]func([]Value) (Value, error){}}
}

// Bind sets a variable, in place when it is already bound.
func (e *Env) Bind(name string, v Value) *Env {
	for i := range e.vars {
		if e.vars[i].name == name {
			e.vars[i].val = v
			return e
		}
	}
	e.vars = append(e.vars, binding{name, v})
	return e
}

// Reset drops every binding, keeping their storage for the next Bind.
func (e *Env) Reset() { e.vars = e.vars[:0] }

// lookup returns the innermost binding of name.
func (e *Env) lookup(name string) (Value, bool) {
	for i := len(e.vars) - 1; i >= 0; i-- {
		if e.vars[i].name == name {
			return e.vars[i].val, true
		}
	}
	return Nil(), false
}

// Eval evaluates expr in env.
func Eval(expr Expr, env *Env) (Value, error) {
	switch x := expr.(type) {
	case *Lit:
		return x.Val, nil
	case *Ref:
		return evalRef(x, env)
	case *Unary:
		return evalUnary(x, env)
	case *Binary:
		return evalBinary(x, env)
	case *Call:
		return evalCall(x, env)
	case *Quant:
		return evalQuant(x, env)
	}
	return Nil(), fmt.Errorf("constraint: unknown expression %T", expr)
}

// EvalBool evaluates expr and requires a boolean result.
func EvalBool(expr Expr, env *Env) (bool, error) {
	v, err := Eval(expr, env)
	if err != nil {
		return false, err
	}
	return v.Truthy()
}

func evalRef(r *Ref, env *Env) (Value, error) {
	head := r.Parts[0]
	var cur Value
	switch {
	case head == "self":
		cur = Elem(env.Sys)
	default:
		if v, ok := env.lookup(head); ok {
			cur = v
		} else if v, ok := lookupImplicit(head, env); ok {
			// Bare identifiers resolve against the implicit subject (`it`),
			// then the system: the paper writes `averageLatency <=
			// maxLatency` with both sides resolved in the constrained
			// element's context.
			return v, nil
		} else {
			if r.errUnbound == nil {
				r.errUnbound = fmt.Errorf("constraint: unbound identifier %q", head)
			}
			return Nil(), r.errUnbound
		}
	}
	for _, part := range r.Parts[1:] {
		next, err := member(cur, part, env)
		if err != nil {
			return Nil(), err
		}
		cur = next
	}
	return cur, nil
}

// lookupImplicit resolves a bare name against `it` (the element under
// check), then the system's properties.
func lookupImplicit(name string, env *Env) (Value, bool) {
	if it, ok := env.lookup("it"); ok {
		if el := it.Elem(); el != nil {
			if v, ok := propValue(el, name); ok {
				return v, true
			}
		}
	}
	if env.Sys != nil {
		if v, ok := propValue(env.Sys, name); ok {
			return v, true
		}
	}
	return Nil(), false
}

func propValue(e model.Element, name string) (Value, bool) {
	p := e.Props()
	if f, ok := p.Float(name); ok {
		return Num(f), true // what gauges write and invariants compare
	}
	raw, ok := p.Get(name)
	if !ok {
		return Nil(), false
	}
	switch v := raw.(type) {
	case bool:
		return Bool(v), true
	case string:
		return Str(v), true
	case []string:
		set := make([]Value, len(v))
		for i, s := range v {
			set[i] = Str(s)
		}
		return Set(set), true
	}
	return Nil(), false
}

// member resolves `cur.part`: structural pseudo-properties first
// (Components, Connectors, Ports, Roles, Reps, name, type), then element
// properties.
func member(cur Value, part string, env *Env) (Value, error) {
	e := cur.Elem()
	if e == nil {
		return Nil(), fmt.Errorf("constraint: cannot select %q from %s", part, cur)
	}
	switch part {
	case "name":
		return Str(e.Name()), nil
	case "type":
		return Str(e.Type()), nil
	}
	switch el := e.(type) {
	case *model.System:
		switch part {
		case "Components":
			return elems(el.Components()), nil
		case "Connectors":
			return elems(el.Connectors()), nil
		}
	case *model.Component:
		switch part {
		case "Ports":
			return elems(el.Ports()), nil
		case "Reps":
			if el.Rep == nil {
				return Set(nil), nil
			}
			return elems(el.Rep.Components()), nil
		}
	case *model.Connector:
		if part == "Roles" {
			return elems(el.Roles()), nil
		}
	}
	if v, ok := propValue(e, part); ok {
		return v, nil
	}
	return Nil(), fmt.Errorf("constraint: %s %q has no property %q", e.Kind(), e.Name(), part)
}

// elems is the set of a list of model elements.
func elems[E model.Element](es []E) Value {
	vs := make([]Value, len(es))
	for i, e := range es {
		vs[i] = Elem(e)
	}
	return Set(vs)
}

func evalUnary(u *Unary, env *Env) (Value, error) {
	v, err := Eval(u.X, env)
	if err != nil {
		return Nil(), err
	}
	switch u.Op {
	case "!":
		b, err := v.Truthy()
		if err != nil {
			return Nil(), err
		}
		return Bool(!b), nil
	case "-":
		if v.Kind() != KNum {
			return Nil(), fmt.Errorf("constraint: unary - on %s", v)
		}
		return Num(-v.num), nil
	}
	return Nil(), fmt.Errorf("constraint: unknown unary %q", u.Op)
}

func evalBinary(b *Binary, env *Env) (Value, error) {
	l, err := Eval(b.L, env)
	if err != nil {
		return Nil(), err
	}
	switch b.Op {
	case "and", "or":
		// Short-circuit: the right operand runs only when it decides.
		lb, err := l.Truthy()
		if err != nil || lb == (b.Op == "or") {
			return Bool(lb), err
		}
		rb, err := EvalBool(b.R, env)
		return Bool(rb), err
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return Nil(), err
	}
	switch b.Op {
	case "==":
		return Bool(equal(l, r)), nil
	case "!=":
		return Bool(!equal(l, r)), nil
	}
	if l.Kind() != KNum || r.Kind() != KNum {
		return Nil(), fmt.Errorf("constraint: %s requires numbers, got %s %s", b.Op, l, r)
	}
	switch b.Op {
	case "<":
		return Bool(l.num < r.num), nil
	case "<=":
		return Bool(l.num <= r.num), nil
	case ">":
		return Bool(l.num > r.num), nil
	case ">=":
		return Bool(l.num >= r.num), nil
	case "+":
		return Num(l.num + r.num), nil
	case "-":
		return Num(l.num - r.num), nil
	case "*":
		return Num(l.num * r.num), nil
	case "/":
		if r.num == 0 {
			return Nil(), fmt.Errorf("constraint: division by zero")
		}
		return Num(l.num / r.num), nil
	}
	return Nil(), fmt.Errorf("constraint: unknown operator %q", b.Op)
}

func evalCall(c *Call, env *Env) (Value, error) {
	base := len(env.args)
	for _, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			env.args = env.args[:base]
			return Nil(), err
		}
		env.args = append(env.args, v)
	}
	v, err := call(c.Fn, env.args[base:], env)
	env.args = env.args[:base]
	return v, err
}

// call applies a builtin or an env function to evaluated arguments.
func call(fn string, args []Value, env *Env) (Value, error) {
	switch fn {
	case "size":
		if len(args) != 1 || args[0].Kind() != KSet {
			return Nil(), fmt.Errorf("constraint: size() wants one set argument")
		}
		return Num(float64(len(args[0].Set()))), nil
	case "connected":
		if len(args) != 2 {
			return Nil(), fmt.Errorf("constraint: connected() wants two arguments")
		}
		a, aok := asComponent(args[0])
		b, bok := asComponent(args[1])
		if !aok || !bok {
			return Nil(), fmt.Errorf("constraint: connected() wants components, got %s, %s", args[0], args[1])
		}
		return Bool(env.Sys.Connected(a, b)), nil
	case "attached":
		if len(args) != 2 {
			return Nil(), fmt.Errorf("constraint: attached() wants two arguments")
		}
		// Accept (port, role) in either order — the paper writes both.
		p, r := asPortRole(args[0], args[1])
		if p == nil || r == nil {
			return Nil(), fmt.Errorf("constraint: attached() wants a port and a role, got %s, %s", args[0], args[1])
		}
		return Bool(env.Sys.Attached(p, r)), nil
	case "hasProperty":
		if len(args) != 2 || args[0].Kind() != KElem || args[1].Kind() != KStr {
			return Nil(), fmt.Errorf("constraint: hasProperty(elem, name)")
		}
		return Bool(args[0].Elem().Props().Has(args[1].Str())), nil
	case "union":
		var all []Value
		for _, a := range args {
			if a.Kind() != KSet {
				return Nil(), fmt.Errorf("constraint: union() wants sets")
			}
			all = append(all, a.Set()...)
		}
		return Set(all), nil
	case "contains":
		if len(args) != 2 || args[0].Kind() != KSet {
			return Nil(), fmt.Errorf("constraint: contains(set, v)")
		}
		for _, v := range args[0].Set() {
			if equal(v, args[1]) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	}
	if f, ok := env.Funcs[fn]; ok {
		return f(args)
	}
	return Nil(), fmt.Errorf("constraint: unknown function %q", fn)
}

func asComponent(v Value) (*model.Component, bool) {
	c, ok := v.ref.(*model.Component)
	return c, ok
}

func asPortRole(a, b Value) (*model.Port, *model.Role) {
	if p, ok := a.ref.(*model.Port); ok {
		r, _ := b.ref.(*model.Role)
		return p, r
	}
	if r, ok := a.ref.(*model.Role); ok {
		p, _ := b.ref.(*model.Port)
		return p, r
	}
	return nil, nil
}

func evalQuant(q *Quant, env *Env) (Value, error) {
	// A typed quantifier over self.Components walks the system's cached,
	// name-sorted list of that type instead of building the set.
	var typed []*model.Component
	var dom []Value
	if r, ok := q.Dom.(*Ref); ok && q.Type != "" && env.Sys != nil && len(r.Parts) == 2 && r.Parts[0] == "self" && r.Parts[1] == "Components" {
		typed = env.Sys.ComponentsByType(q.Type)
	} else {
		d, err := Eval(q.Dom, env)
		if err != nil {
			return Nil(), err
		}
		if d.Kind() != KSet {
			return Nil(), fmt.Errorf("constraint: quantifier domain is not a set: %s", d)
		}
		dom = d.Set()
	}
	n := len(typed) + len(dom)
	top := len(env.vars)
	env.vars = append(env.vars, binding{name: q.Var})
	// found is the exists/forall verdict: exists holds once a member
	// satisfies the predicate, forall until one does not.
	found := q.Mode == "forall"
	var matches []Value
	for i := 0; i < n; i++ {
		var v Value
		if typed != nil {
			v = Elem(typed[i])
		} else if v = dom[i]; q.Type != "" {
			if e := v.Elem(); e == nil || e.Type() != q.Type {
				continue
			}
		}
		env.vars[top].val = v
		ok, err := EvalBool(q.Pred, env)
		if err != nil {
			env.vars = env.vars[:top]
			return Nil(), err
		}
		if q.Mode == "select" {
			if ok {
				matches = append(matches, v)
			}
		} else if ok != (q.Mode == "forall") {
			found = ok
			break
		}
	}
	env.vars = env.vars[:top]
	if q.Mode != "select" {
		return Bool(found), nil
	}
	// select: deterministic order by element name where applicable; the
	// typed walk is in name order already.
	if typed == nil && len(matches) > 1 {
		sort.SliceStable(matches, func(i, j int) bool {
			ae, be := matches[i].Elem(), matches[j].Elem()
			return ae != nil && be != nil && ae.Name() < be.Name()
		})
	}
	if q.One {
		if len(matches) == 0 {
			return Nil(), nil
		}
		return matches[0], nil
	}
	return Set(matches), nil
}
