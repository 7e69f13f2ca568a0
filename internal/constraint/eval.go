package constraint

import (
	"fmt"
	"sort"

	"archadapt/internal/model"
)

// Env is an evaluation environment: variable bindings layered over a system,
// plus optional external functions (style-specific queries such as the
// paper's findGoodSGrp, which consults the runtime layer).
type Env struct {
	Sys *model.System
	// vars holds the bindings innermost last; a scope has a handful, so a
	// backwards scan resolves a name faster than hashing it would.
	vars  []binding
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

// Bind sets a variable.
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

// child creates a scope with one extra binding, which shadows any outer
// binding of the same name. The caller may rebind it through rebind.
func (e *Env) child(name string, v Value) *Env {
	vars := make([]binding, len(e.vars)+1)
	copy(vars, e.vars)
	vars[len(e.vars)] = binding{name, v}
	return &Env{Sys: e.Sys, vars: vars, Funcs: e.Funcs}
}

// rebind replaces the value of the binding child added.
func (e *Env) rebind(v Value) { e.vars[len(e.vars)-1].val = v }

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
			return elemSet(componentsAsElements(el.Components())), nil
		case "Connectors":
			conns := el.Connectors()
			out := make([]model.Element, len(conns))
			for i, c := range conns {
				out[i] = c
			}
			return elemSet(out), nil
		}
	case *model.Component:
		switch part {
		case "Ports":
			ports := el.Ports()
			out := make([]model.Element, len(ports))
			for i, p := range ports {
				out[i] = p
			}
			return elemSet(out), nil
		case "Reps":
			if el.Rep == nil {
				return Set(nil), nil
			}
			return elemSet(componentsAsElements(el.Rep.Components())), nil
		}
	case *model.Connector:
		if part == "Roles" {
			roles := el.Roles()
			out := make([]model.Element, len(roles))
			for i, r := range roles {
				out[i] = r
			}
			return elemSet(out), nil
		}
	}
	if v, ok := propValue(e, part); ok {
		return v, nil
	}
	return Nil(), fmt.Errorf("constraint: %s %q has no property %q", e.Kind(), e.Name(), part)
}

func componentsAsElements(cs []*model.Component) []model.Element {
	out := make([]model.Element, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

func elemSet(es []model.Element) Value {
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
		if v.ref != KNum {
			return Nil(), fmt.Errorf("constraint: unary - on %s", v)
		}
		return Num(-v.num), nil
	}
	return Nil(), fmt.Errorf("constraint: unknown unary %q", u.Op)
}

func evalBinary(b *Binary, env *Env) (Value, error) {
	// Short-circuit boolean operators.
	if b.Op == "and" || b.Op == "or" {
		l, err := EvalBool(b.L, env)
		if err != nil {
			return Nil(), err
		}
		if b.Op == "and" && !l {
			return Bool(false), nil
		}
		if b.Op == "or" && l {
			return Bool(true), nil
		}
		r, err := EvalBool(b.R, env)
		if err != nil {
			return Nil(), err
		}
		return Bool(r), nil
	}
	l, err := Eval(b.L, env)
	if err != nil {
		return Nil(), err
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
	case "<", "<=", ">", ">=":
		if l.ref != KNum || r.ref != KNum {
			return Nil(), fmt.Errorf("constraint: %s requires numbers, got %s %s", b.Op, l, r)
		}
		switch b.Op {
		case "<":
			return Bool(l.num < r.num), nil
		case "<=":
			return Bool(l.num <= r.num), nil
		case ">":
			return Bool(l.num > r.num), nil
		default:
			return Bool(l.num >= r.num), nil
		}
	case "+", "-", "*", "/":
		if l.ref != KNum || r.ref != KNum {
			return Nil(), fmt.Errorf("constraint: %s requires numbers, got %s %s", b.Op, l, r)
		}
		switch b.Op {
		case "+":
			return Num(l.num + r.num), nil
		case "-":
			return Num(l.num - r.num), nil
		case "*":
			return Num(l.num * r.num), nil
		default:
			if r.num == 0 {
				return Nil(), fmt.Errorf("constraint: division by zero")
			}
			return Num(l.num / r.num), nil
		}
	}
	return Nil(), fmt.Errorf("constraint: unknown operator %q", b.Op)
}

func evalCall(c *Call, env *Env) (Value, error) {
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := Eval(a, env)
		if err != nil {
			return Nil(), err
		}
		args[i] = v
	}
	switch c.Fn {
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
	if fn, ok := env.Funcs[c.Fn]; ok {
		return fn(args)
	}
	return Nil(), fmt.Errorf("constraint: unknown function %q", c.Fn)
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
	dom, err := Eval(q.Dom, env)
	if err != nil {
		return Nil(), err
	}
	if dom.Kind() != KSet {
		return Nil(), fmt.Errorf("constraint: quantifier domain is not a set: %s", dom)
	}
	var matches []Value
	scope := env.child(q.Var, Nil())
	for _, v := range dom.Set() {
		if q.Type != "" {
			if e := v.Elem(); e == nil || e.Type() != q.Type {
				continue
			}
		}
		scope.rebind(v)
		ok, err := EvalBool(q.Pred, scope)
		if err != nil {
			return Nil(), err
		}
		switch q.Mode {
		case "exists":
			if ok {
				return Bool(true), nil
			}
		case "forall":
			if !ok {
				return Bool(false), nil
			}
		case "select":
			if ok {
				matches = append(matches, v)
			}
		}
	}
	switch q.Mode {
	case "exists":
		return Bool(false), nil
	case "forall":
		return Bool(true), nil
	}
	// select: deterministic order by element name where applicable.
	sort.SliceStable(matches, func(i, j int) bool {
		ae, be := matches[i].Elem(), matches[j].Elem()
		return ae != nil && be != nil && ae.Name() < be.Name()
	})
	if q.One {
		if len(matches) == 0 {
			return Nil(), nil
		}
		return matches[0], nil
	}
	return Set(matches), nil
}
