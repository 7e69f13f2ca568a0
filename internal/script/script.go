// Package script implements the repair-script language of Figure 5: an
// imperative layer over the constraint expression language in which repair
// strategies and tactics are written:
//
//	strategy fixLatency(badClient : ClientT) = {
//	    if (fixServerLoad(badClient)) { commit repair; }
//	    else { if (fixBandwidth(badClient)) { commit repair; }
//	           else { abort ModelError; } }
//	}
//
//	tactic fixServerLoad(client : ClientT) : boolean = {
//	    let loaded : set = select sgrp : ServerGroupT in self.Components |
//	        connected(sgrp, client) and sgrp.load > maxServerLoad;
//	    if (size(loaded) == 0) { return false; }
//	    foreach sGrp in loaded { sGrp.addServer(); }
//	    return size(loaded) > 0;
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
// move, remove) are supplied by an OperatorSet.
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
	varName string
	domain  constraint.Expr
	body    []stmt
}

type returnStmt struct{ expr constraint.Expr }

type commitStmt struct{}

type abortStmt struct{ reason string }

type callStmt struct {
	recv   string // "" for plain procedure calls
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

// param is a declared strategy/tactic parameter.
type param struct {
	name string
	typ  string
}

// Def is one parsed strategy or tactic definition.
type Def struct {
	Kind   string // "strategy" or "tactic"
	Name   string
	params []param
	body   []stmt
}
