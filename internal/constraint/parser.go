package constraint

import "fmt"

// Parse parses a constraint expression that is the whole of src.
func Parse(src string) (Expr, error) {
	c := NewCursor("", src)
	e, err := c.parseOr()
	if err == nil && c.Peek().Is("=") {
		err = fmt.Errorf("single '=' (use '==')")
	} else if err == nil && c.Peek().Kind != EOF {
		err = fmt.Errorf("trailing input at %s", c.Peek())
	}
	if err != nil {
		return nil, fmt.Errorf("constraint: %v at %d in %q", err, c.Peek().Pos, src)
	}
	return e, nil
}

// Expr parses the one expression that starts at the current token and
// leaves the cursor on the first token it did not consume. The grammar uses
// none of `; { } =`, so an expression embedded in a script or an Acme
// description ends by itself at whatever closes the statement around it. On
// error the cursor stands on the offending token and the message carries no
// position: the caller's Errorf places it.
func (c *Cursor) Expr() (Expr, error) {
	sub := Cursor{toks: c.toks, i: c.i}
	e, err := sub.parseOr()
	c.i = sub.i
	return e, err
}

// keywords are the words of the expression grammar; none can name a
// variable, a type or a property.
var keywords = map[string]bool{
	"and": true, "or": true, "not": true,
	"exists": true, "forall": true, "select": true, "one": true,
	"in": true, "true": true, "false": true, "nil": true,
}

// ident consumes a word that is not a keyword; what names the thing
// expected in the error.
func (c *Cursor) ident(what string) (string, error) {
	if t := c.Peek(); keywords[t.Text] {
		return "", c.Errorf("expected %s, found %s", what, t)
	}
	return c.Word(what)
}

func (c *Cursor) parseOr() (Expr, error) {
	l, err := c.parseAnd()
	if err != nil {
		return nil, err
	}
	for c.Accept("or") {
		r, err := c.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (c *Cursor) parseAnd() (Expr, error) {
	l, err := c.parseNot()
	if err != nil {
		return nil, err
	}
	for c.Accept("and") {
		r, err := c.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (c *Cursor) parseNot() (Expr, error) {
	// Every cycle of the descent passes through here, except parseUnary's own.
	if err := c.Descend("expression"); err != nil {
		return nil, err
	}
	defer c.Ascend()
	if c.Accept("not") || c.Accept("!") {
		x, err := c.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	}
	return c.parseCmp()
}

var cmpOps = map[string]bool{"<": true, "<=": true, ">": true, ">=": true, "==": true, "!=": true}

func (c *Cursor) parseCmp() (Expr, error) {
	l, err := c.parseAdd()
	if err != nil {
		return nil, err
	}
	t := c.Peek()
	if t.Kind == Punct && cmpOps[t.Text] {
		c.i++
		r, err := c.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (c *Cursor) parseAdd() (Expr, error) {
	l, err := c.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := c.Peek()
		if t.Is("+") || t.Is("-") {
			c.i++
			r, err := c.parseMul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (c *Cursor) parseMul() (Expr, error) {
	l, err := c.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := c.Peek()
		if t.Is("*") || t.Is("/") {
			c.i++
			r, err := c.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: t.Text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (c *Cursor) parseUnary() (Expr, error) {
	if c.Accept("-") {
		if err := c.Descend("expression"); err != nil {
			return nil, err
		}
		defer c.Ascend()
		x, err := c.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return c.parsePrimary()
}

func (c *Cursor) parsePrimary() (Expr, error) {
	t := c.Peek()
	switch {
	case t.Kind == Number:
		c.i++
		return &Lit{Val: Num(t.Num)}, nil
	case t.Kind == String:
		c.i++
		return &Lit{Val: Str(t.Text)}, nil
	case t.Is("true") || t.Is("false"):
		c.i++
		return &Lit{Val: Bool(t.Text == "true")}, nil
	case t.Is("nil"):
		c.i++
		return &Lit{Val: Nil()}, nil
	case t.Is("exists") || t.Is("forall") || t.Is("select"):
		return c.parseQuant()
	case t.Is("("):
		c.i++
		e, err := c.parseOr()
		if err != nil {
			return nil, err
		}
		return e, c.Expect(")")
	case t.Kind == Ident && !keywords[t.Text]:
		return c.parseRefOrCall()
	}
	return nil, c.Errorf("unexpected %s", t)
}

func (c *Cursor) parseQuant() (Expr, error) {
	q := &Quant{Mode: c.Peek().Text}
	c.i++
	q.One = q.Mode == "select" && c.Accept("one")
	var err error
	if q.Var, err = c.ident("variable after " + q.Mode); err != nil {
		return nil, err
	}
	if c.Accept(":") {
		if q.Type, err = c.ident("type after ':'"); err != nil {
			return nil, err
		}
	}
	if err = c.Expect("in"); err != nil {
		return nil, err
	}
	if q.Dom, err = c.parseOr(); err != nil {
		return nil, err
	}
	if err = c.Expect("|"); err != nil {
		return nil, err
	}
	if q.Pred, err = c.parseOr(); err != nil {
		return nil, err
	}
	return q, nil
}

func (c *Cursor) parseRefOrCall() (Expr, error) {
	name := c.Peek().Text
	c.i++
	if c.Accept("(") {
		var args []Expr
		err := c.List(")", func() error {
			a, err := c.parseOr()
			args = append(args, a)
			return err
		})
		if err != nil {
			return nil, err
		}
		return &Call{Fn: name, Args: args}, nil
	}
	parts := []string{name}
	for c.Accept(".") {
		part, err := c.ident("identifier after '.'")
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return &Ref{Parts: parts}, nil
}
