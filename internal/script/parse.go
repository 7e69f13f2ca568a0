package script

import (
	"fmt"

	"archadapt/internal/constraint"
)

// parser walks the token stream of the constraint lexer; an embedded
// expression is parsed where it stands, on the same tokens.
type parser struct {
	constraint.Cursor
	params []string // of the definition being parsed
	calls  []call   // of the definition being parsed
}

// ParseDefs parses a script source into strategy/tactic definitions.
func ParseDefs(src string) ([]*Def, error) {
	p := &parser{Cursor: constraint.NewCursor("script", src)}
	var defs []*Def
	for p.Peek().Kind != constraint.EOF {
		d, err := p.parseDef()
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("script: no definitions")
	}
	return defs, nil
}

// local consumes a let or foreach variable. A definition's variables share
// one scope, so a variable named like a parameter or `it` would overwrite it
// for the rest of the definition: that is refused.
func (p *parser) local(what string) (string, error) {
	t := p.Peek()
	taken := t.Text == "it"
	for _, pr := range p.params {
		taken = taken || pr == t.Text
	}
	if t.Kind == constraint.Ident && taken {
		return "", p.Errorf("%s %s would rebind a parameter", what, t.Text)
	}
	return p.Word(what)
}

// expr parses the constraint expression that starts at the current token
// and stops at the first token that cannot continue it.
func (p *parser) expr() (constraint.Expr, error) {
	line := p.Peek().Line
	e, err := p.Expr()
	if err != nil {
		return nil, p.Errorf("%v", err)
	}
	p.noteCalls(line, e)
	return e, nil
}

// noteCalls records every function call inside e, at the line e starts on.
func (p *parser) noteCalls(line int, e constraint.Expr) {
	switch x := e.(type) {
	case *constraint.Unary:
		p.noteCalls(line, x.X)
	case *constraint.Binary:
		p.noteCalls(line, x.L)
		p.noteCalls(line, x.R)
	case *constraint.Quant:
		p.noteCalls(line, x.Dom)
		p.noteCalls(line, x.Pred)
	case *constraint.Call:
		p.calls = append(p.calls, call{line: line, name: x.Fn, nargs: len(x.Args)})
		for _, a := range x.Args {
			p.noteCalls(line, a)
		}
	}
}

// exprThen parses an expression and the token that closes it.
func (p *parser) exprThen(closer string) (constraint.Expr, error) {
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return e, p.Expect(closer)
}

func (p *parser) parseDef() (*Def, error) {
	kind := p.Peek()
	line := kind.Line
	if !kind.Is("strategy") && !kind.Is("tactic") {
		return nil, p.Errorf("expected 'strategy' or 'tactic', found %s", kind)
	}
	p.Next()
	name, err := p.Word(kind.Text + " name")
	if err != nil {
		return nil, err
	}
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	var params []string
	err = p.List(")", func() error {
		pn, err := p.Word("parameter of " + name)
		if err != nil {
			return err
		}
		params = append(params, pn)
		return p.annotation()
	})
	if err != nil {
		return nil, err
	}
	if err := p.annotation(); err != nil { // the result type: `: boolean`
		return nil, err
	}
	if err := p.Expect("="); err != nil {
		return nil, err
	}
	p.params, p.calls = params, nil
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Def{Kind: kind.Text, Name: name, line: line, params: params, body: body, calls: p.calls}, nil
}

// annotation consumes an optional `: Type`, where a type is a word or a
// set of one, `set{T}`. Types are parsed, not checked.
func (p *parser) annotation() error {
	if !p.Accept(":") {
		return nil
	}
	if _, err := p.Word("type after ':'"); err != nil || !p.Accept("{") {
		return err
	}
	if _, err := p.Word("type"); err != nil {
		return err
	}
	return p.Expect("}")
}

func (p *parser) parseBlock() ([]stmt, error) {
	if err := p.Expect("{"); err != nil {
		return nil, err
	}
	var out []stmt
	for !p.Accept("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// parseStmt parses one statement. Every cycle of the descent — a block
// inside `if` or `foreach`, an `else if` chain — passes through here, so this
// is where nesting is bounded, by the cursor's one guard.
func (p *parser) parseStmt() (stmt, error) {
	if err := p.Descend("statements"); err != nil {
		return nil, err
	}
	defer p.Ascend()
	line := p.Peek().Line
	switch {
	case p.Accept("let"):
		name, err := p.local("let variable")
		if err != nil {
			return nil, err
		}
		if err := p.annotation(); err != nil {
			return nil, err
		}
		if err := p.Expect("="); err != nil {
			return nil, err
		}
		e, err := p.exprThen(";")
		if err != nil {
			return nil, err
		}
		return &letStmt{name: name, expr: e}, nil
	case p.Accept("if"):
		if err := p.Expect("("); err != nil {
			return nil, err
		}
		cond, err := p.exprThen(")")
		if err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var els []stmt
		if p.Accept("else") {
			if p.Peek().Is("if") {
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				els = []stmt{s}
			} else if els, err = p.parseBlock(); err != nil {
				return nil, err
			}
		}
		return &ifStmt{cond: cond, then: then, els: els}, nil
	case p.Accept("foreach"):
		v, err := p.local("foreach variable")
		if err != nil {
			return nil, err
		}
		if err := p.Expect("in"); err != nil {
			return nil, err
		}
		dom, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &foreachStmt{line: line, varName: v, domain: dom, body: body}, nil
	case p.Accept("return"):
		e, err := p.exprThen(";")
		if err != nil {
			return nil, err
		}
		return &returnStmt{expr: e}, nil
	case p.Accept("commit"):
		p.Accept("repair")
		return &commitStmt{}, p.Expect(";")
	case p.Accept("abort"):
		reason, err := p.Word("abort reason")
		if err != nil {
			return nil, err
		}
		return &abortStmt{reason: reason, err: fmt.Errorf("script:%d: abort %s", line, reason)}, p.Expect(";")
	}
	// Method or procedure call: recv.method(args); or proc(args);
	name, err := p.Word("statement")
	if err != nil {
		return nil, err
	}
	var recv *constraint.Ref
	method := name
	if p.Accept(".") {
		recv = &constraint.Ref{Parts: []string{name}}
		if method, err = p.Word("method name"); err != nil {
			return nil, err
		}
	}
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	var args []constraint.Expr
	err = p.List(")", func() error {
		a, err := p.expr()
		args = append(args, a)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.calls = append(p.calls, call{line: line, name: method, nargs: len(args), method: recv != nil, stmt: true})
	return &callStmt{recv: recv, method: method, args: args}, p.Expect(";")
}
