package constraint

import "fmt"

// Parse parses a constraint expression that is the whole of src.
func Parse(src string) (Expr, error) {
	toks := Lex(src)
	e, i, err := ParsePrefix(toks, 0)
	if err == nil && toks[i].Is("=") {
		err = fmt.Errorf("single '=' (use '==')")
	} else if err == nil && toks[i].Kind != EOF {
		err = fmt.Errorf("trailing input at %s", toks[i])
	}
	if err != nil {
		return nil, fmt.Errorf("constraint: %v at %d in %q", err, toks[i].Pos, src)
	}
	return e, nil
}

// ParsePrefix parses the one expression that starts at toks[i], which must
// come from Lex, and returns it with the index of the first token it did not
// consume. The grammar uses none of `; { } =`, so an expression embedded in a
// script or an Acme description ends by itself at whatever closes the
// statement around it. On error the index is that of the offending token,
// whose Line and Pos place the message; the message itself carries neither.
func ParsePrefix(toks []Token, i int) (Expr, int, error) {
	p := parser{toks: toks, i: i}
	e, err := p.parseOr()
	return e, p.i, err
}

// keywords are the words of the expression grammar; none can name a
// variable, a type or a property.
var keywords = map[string]bool{
	"and": true, "or": true, "not": true,
	"exists": true, "forall": true, "select": true, "one": true,
	"in": true, "true": true, "false": true, "nil": true,
}

type parser struct {
	toks  []Token
	i     int
	depth int
}

func (p *parser) peek() Token { return p.toks[p.i] }

func (p *parser) accept(text string) bool {
	if p.peek().Is(text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("expected %q, found %s", text, p.peek())
	}
	return nil
}

// ident consumes an identifier that is not a keyword; what names the thing
// expected in the error.
func (p *parser) ident(what string) (string, error) {
	t := p.peek()
	if t.Kind != Ident || keywords[t.Text] {
		return "", fmt.Errorf("expected %s, found %s", what, t)
	}
	p.i++
	return t.Text, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

// MaxNesting bounds how deep an expression may nest, so that text from
// outside the program cannot grow the stack until the runtime kills the
// process: a megabyte of "(" did. The script and ADL parsers bound their own
// recursion (statement blocks, representations) at the same depth.
const MaxNesting = 10000

// descend counts one level of nesting, which the caller defers p.ascend to
// take off again. Every cycle of the descent passes through parseNot, except
// parseUnary's own.
func (p *parser) descend() error {
	if p.depth++; p.depth > MaxNesting {
		return fmt.Errorf("expression nested deeper than %d", MaxNesting)
	}
	return nil
}

func (p *parser) ascend() { p.depth-- }

func (p *parser) parseNot() (Expr, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	defer p.ascend()
	if p.accept("not") || p.accept("!") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"<": true, "<=": true, ">": true, ">=": true, "==": true, "!=": true}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == Punct && cmpOps[t.Text] {
		p.i++
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Is("+") || t.Is("-") {
			p.i++
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Is("*") || t.Is("/") {
			p.i++
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == Number:
		p.i++
		return &Lit{Val: Num(t.Num)}, nil
	case t.Kind == String:
		p.i++
		return &Lit{Val: Str(t.Text)}, nil
	case t.Is("true") || t.Is("false"):
		p.i++
		return &Lit{Val: Bool(t.Text == "true")}, nil
	case t.Is("nil"):
		p.i++
		return &Lit{Val: Nil()}, nil
	case t.Is("exists") || t.Is("forall") || t.Is("select"):
		return p.parseQuant()
	case t.Is("("):
		p.i++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(")")
	case t.Kind == Ident && !keywords[t.Text]:
		return p.parseRefOrCall()
	}
	return nil, fmt.Errorf("unexpected %s", t)
}

func (p *parser) parseQuant() (Expr, error) {
	q := &Quant{Mode: p.peek().Text}
	p.i++
	q.One = q.Mode == "select" && p.accept("one")
	var err error
	if q.Var, err = p.ident("variable after " + q.Mode); err != nil {
		return nil, err
	}
	if p.accept(":") {
		if q.Type, err = p.ident("type after ':'"); err != nil {
			return nil, err
		}
	}
	if err = p.expect("in"); err != nil {
		return nil, err
	}
	if q.Dom, err = p.parseOr(); err != nil {
		return nil, err
	}
	if err = p.expect("|"); err != nil {
		return nil, err
	}
	if q.Pred, err = p.parseOr(); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseRefOrCall() (Expr, error) {
	name := p.peek().Text
	p.i++
	if p.accept("(") {
		var args []Expr
		if !p.accept(")") {
			for {
				a, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.accept(",") {
					continue
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				break
			}
		}
		return &Call{Fn: name, Args: args}, nil
	}
	parts := []string{name}
	for p.accept(".") {
		part, err := p.ident("identifier after '.'")
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return &Ref{Parts: parts}, nil
}
