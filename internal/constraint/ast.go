package constraint

import (
	"fmt"
	"strings"
)

// Expr is a parsed constraint expression. Expressions print back to a
// canonical source form (used by the ADL unparser), so parse∘print is a
// fixpoint.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Lit is a literal: number, string, boolean, or nil.
type Lit struct{ Val Value }

// Ref is a (possibly dotted) reference: `averageLatency`,
// `self.Components`, `role.bandwidth`.
type Ref struct {
	Parts []string
	// errUnbound caches the unbound-identifier error for this node: its text
	// depends only on Parts[0], and the warm-up phase (gauges not yet
	// reporting) hits it on every check tick, so allocating it per
	// evaluation is measurable fleet-wide.
	errUnbound error
}

// Unary is !x or -x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operation (arithmetic, comparison, and/or).
type Binary struct {
	Op   string
	L, R Expr
}

// Call is a function invocation: size(s), connected(a, b), attached(p, r).
type Call struct {
	Fn   string
	Args []Expr
}

// Quant is a first-order form over a set:
//
//	exists p : RequestT in cli.Ports | pred
//	forall s : ServerT in grp.Reps | pred
//	select sgrp : ServerGroupT in self.Components | pred   (yields a set)
//	select one c : ClientT in self.Components | pred       (yields one elem or nil)
type Quant struct {
	Mode string // "exists", "forall", "select"
	One  bool   // select one
	Var  string
	Type string // element type filter; empty means untyped
	Dom  Expr
	Pred Expr
}

func (*Lit) isExpr()    {}
func (*Ref) isExpr()    {}
func (*Unary) isExpr()  {}
func (*Binary) isExpr() {}
func (*Call) isExpr()   {}
func (*Quant) isExpr()  {}

func (e *Lit) String() string {
	return e.Val.String()
}

func (e *Ref) String() string { return strings.Join(e.Parts, ".") }

func (e *Unary) String() string {
	if e.Op == "!" {
		return "!" + parenthesize(e.X)
	}
	return e.Op + parenthesize(e.X)
}

func (e *Binary) String() string {
	return parenthesize(e.L) + " " + e.Op + " " + parenthesize(e.R)
}

func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (e *Quant) String() string {
	mode := e.Mode
	if e.One {
		mode += " one"
	}
	typ := ""
	if e.Type != "" {
		typ = " : " + e.Type
	}
	return mode + " " + e.Var + typ + " in " + e.Dom.String() + " | " + e.Pred.String()
}

// parenthesize wraps compound sub-expressions so the canonical form is
// unambiguous without tracking precedence. Unary must be wrapped too: `!`
// binds looser than arithmetic in this grammar, so `!a + b` and `(!a) + b`
// are different expressions.
func parenthesize(e Expr) string {
	switch e.(type) {
	case *Binary, *Quant, *Unary:
		return "(" + e.String() + ")"
	}
	return e.String()
}
