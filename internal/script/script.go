// Package script implements the repair-script language of Figure 5: an
// imperative layer over the constraint expression language in which repair
// strategies and tactics are written (operators.FixLatencyScript is the
// figure itself):
//
//	strategy fixLatency(badClient : ClientT) = {
//	    if (fixServerLoad(badClient)) { commit repair; }
//	    else if (fixBandwidth(badClient)) { commit repair; }
//	    else { abort ModelError; }
//	}
//
// The paper's prototype hand-coded its repairs "using a form that could be
// generated from the repair strategies in Figure 5"; this package closes
// that gap: Compile turns the Figure 5 text into repair.Strategy values that
// run on the same engine as the hand-coded Go tactics.
//
// Statements: `let x [: type] = expr;`, `if (expr) {..} [else {..}]`,
// `foreach v in expr {..}`, `return expr;`, `commit repair;`,
// `abort Name;`, and method/procedure calls `recv.method(args);`.
// Expressions are exactly the constraint language (select/exists/forall,
// connected, attached, size, style functions). Style operators (addServer,
// move, remove) and queries (findGoodSGrp, hasSpare, ...) are supplied by an
// OperatorSet. Variables live in one scope per definition: `let` and
// `foreach` bind in place, a foreach variable keeps its last member, and
// neither may rebind a parameter or `it`. A `: Type` annotation, on a
// parameter, the result or a `let`, is a word or `set{T}`, parsed but not
// checked; parameter and argument lists put one comma between two items and
// none after the last.
package script

import "archadapt/internal/constraint"

// ---- AST ----

type stmt interface{ isStmt() }

type letStmt struct {
	name string
	expr constraint.Expr
}

type ifStmt struct {
	cond      constraint.Expr
	then, els []stmt
}

type foreachStmt struct {
	line    int
	varName string
	domain  constraint.Expr
	body    []stmt
}

type returnStmt struct{ expr constraint.Expr }

type commitStmt struct{}

type abortStmt struct {
	reason string
	err    error // what the abort fails the strategy with, made once
}

type callStmt struct {
	recv   *constraint.Ref // nil for plain procedure calls
	method string
	args   []constraint.Expr
}

func (*letStmt) isStmt()     {}
func (*ifStmt) isStmt()      {}
func (*foreachStmt) isStmt() {}
func (*returnStmt) isStmt()  {}
func (*commitStmt) isStmt()  {}
func (*abortStmt) isStmt()   {}
func (*callStmt) isStmt()    {}

// call is one call a definition makes, noted where it is parsed so that
// Compile can check it.
type call struct {
	line   int
	name   string
	nargs  int
	method bool // `recv.name(...)`: a style method
	stmt   bool // a statement, so name must be callable as a procedure
}

// Def is one parsed strategy or tactic definition.
type Def struct {
	Kind   string // "strategy" or "tactic"
	Name   string
	line   int
	index  int      // position in its library, which keeps a frame per definition
	params []string // parameter names; a `: Type` annotation is parsed, not checked
	body   []stmt
	calls  []call
}
