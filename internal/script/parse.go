package script

import (
	"fmt"

	"archadapt/internal/constraint"
)

// parser walks the token stream of the constraint lexer; an embedded
// expression is parsed where it stands, on the same tokens.
type parser struct {
	toks   []constraint.Token
	i      int
	depth  int      // statements open around the current one
	params []string // of the definition being parsed
	calls  []call   // of the definition being parsed
}

// ParseDefs parses a script source into strategy/tactic definitions.
func ParseDefs(src string) ([]*Def, error) {
	p := &parser{toks: constraint.Lex(src)}
	var defs []*Def
	for p.peek().Kind != constraint.EOF {
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

func (p *parser) peek() constraint.Token { return p.toks[p.i] }

// next consumes any token but the closing EOF, so a parse that runs off the
// end of the source keeps meeting it.
func (p *parser) next() constraint.Token {
	t := p.toks[p.i]
	if t.Kind != constraint.EOF {
		p.i++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.peek().Is(text) {
		p.i++
		return true
	}
	return false
}

// errorf reports a message at the line of the current token.
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("script:%d: %s", p.peek().Line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %s", text, p.peek())
	}
	return nil
}

// word consumes an identifier; what names the thing expected in the error.
func (p *parser) word(what string) (string, error) {
	t := p.peek()
	if t.Kind != constraint.Ident {
		return "", p.errorf("expected %s, found %s", what, t)
	}
	p.i++
	return t.Text, nil
}

// local consumes a let or foreach variable. A definition's variables share
// one scope, so a variable named like a parameter or `it` would overwrite it
// for the rest of the definition: that is refused.
func (p *parser) local(what string) (string, error) {
	t := p.peek()
	taken := t.Text == "it"
	for _, pr := range p.params {
		taken = taken || pr == t.Text
	}
	if t.Kind == constraint.Ident && taken {
		return "", p.errorf("%s %s would rebind a parameter", what, t.Text)
	}
	return p.word(what)
}

// expr parses the constraint expression that starts at the current token
// and stops at the first token that cannot continue it.
func (p *parser) expr() (constraint.Expr, error) {
	line := p.peek().Line
	e, next, err := constraint.ParsePrefix(p.toks, p.i)
	p.i = next
	if err != nil {
		return nil, p.errorf("%v", err)
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
	return e, p.expect(closer)
}

func (p *parser) parseDef() (*Def, error) {
	kind := p.peek()
	line := kind.Line
	if !kind.Is("strategy") && !kind.Is("tactic") {
		return nil, p.errorf("expected 'strategy' or 'tactic', found %s", kind)
	}
	p.i++
	name, err := p.word(kind.Text + " name")
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.accept(")") {
		pn, err := p.word("parameter of " + name)
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			p.next() // type name, ignored
		}
		params = append(params, pn)
		p.accept(",")
	}
	// Optional result-type annotation: `: boolean`.
	if p.accept(":") {
		p.next() // type name, ignored
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	p.params, p.calls = params, nil
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &Def{Kind: kind.Text, Name: name, line: line, params: params, body: body, calls: p.calls}, nil
}

func (p *parser) parseBlock() ([]stmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []stmt
	for !p.accept("}") {
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
// is where nesting is bounded, at the depth the expression parser allows.
func (p *parser) parseStmt() (stmt, error) {
	if p.depth++; p.depth > constraint.MaxNesting {
		return nil, p.errorf("statements nested deeper than %d", constraint.MaxNesting)
	}
	defer func() { p.depth-- }()
	line := p.peek().Line
	switch {
	case p.accept("let"):
		name, err := p.local("let variable")
		if err != nil {
			return nil, err
		}
		if p.accept(":") { // optional type annotation: a word or `set{T}`
			p.next()
			if p.accept("{") {
				for !p.accept("}") && p.peek().Kind != constraint.EOF {
					p.i++
				}
			}
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.exprThen(";")
		if err != nil {
			return nil, err
		}
		return &letStmt{name: name, expr: e}, nil
	case p.accept("if"):
		if err := p.expect("("); err != nil {
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
		if p.accept("else") {
			if p.peek().Is("if") {
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
	case p.accept("foreach"):
		v, err := p.local("foreach variable")
		if err != nil {
			return nil, err
		}
		if err := p.expect("in"); err != nil {
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
	case p.accept("return"):
		e, err := p.exprThen(";")
		if err != nil {
			return nil, err
		}
		return &returnStmt{expr: e}, nil
	case p.accept("commit"):
		p.accept("repair")
		return &commitStmt{}, p.expect(";")
	case p.accept("abort"):
		reason, err := p.word("abort reason")
		if err != nil {
			return nil, err
		}
		return &abortStmt{reason: reason, err: fmt.Errorf("script:%d: abort %s", line, reason)}, p.expect(";")
	}
	// Method or procedure call: recv.method(args); or proc(args);
	name, err := p.word("statement")
	if err != nil {
		return nil, err
	}
	var recv *constraint.Ref
	method := name
	if p.accept(".") {
		recv = &constraint.Ref{Parts: []string{name}}
		if method, err = p.word("method name"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []constraint.Expr
	for !p.accept(")") {
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(",") && !p.peek().Is(")") {
			return nil, p.errorf("expected \",\" or \")\", found %s", p.peek())
		}
	}
	p.calls = append(p.calls, call{line: line, name: method, nargs: len(args), method: recv != nil, stmt: true})
	return &callStmt{recv: recv, method: method, args: args}, p.expect(";")
}
