// Package acme reads and writes a textual architecture description language
// in the Acme family, standing in for the paper's AcmeLib: systems of typed
// components and connectors with ports, roles, property lists, nested
// representations, attachments, and invariants.
//
// Example:
//
//	system storage : ClientServerFam = {
//	    property maxLatency = 2.0;
//	    component ServerGrp1 : ServerGroupT = {
//	        port provide : ProvideT;
//	        property load = 0.0;
//	        representation = {
//	            component Server1 : ServerT = { port work : WorkT; }
//	        }
//	    }
//	    connector Req1 : ReqConnT = {
//	        role server : ServerRoleT;
//	    }
//	    attachment ServerGrp1.provide to Req1.server;
//	    invariant latency on ClientT : averageLatency <= maxLatency;
//	}
//
// Parse returns the model plus the declared invariants; PrintSystem renders a
// canonical form such that Parse∘PrintSystem is the identity on models.
package acme

import (
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
)

// Description is a parsed ADL file: the architecture plus its invariants.
type Description struct {
	System     *model.System
	Invariants []*constraint.Invariant
}

// parser walks the token stream of the constraint lexer; an invariant's
// expression is parsed where it stands, on the same tokens. The words of this
// grammar (`system`, `property`, `to`, `on`, ...) and of the expression grammar
// (`in`, `one`, ...) are reserved only where they are expected, so any of them
// can also name an element.
type parser struct {
	toks  []constraint.Token
	i     int
	depth int // system bodies open around the current one
}

func (p *parser) peek() constraint.Token { return p.toks[p.i] }

func (p *parser) accept(text string) bool {
	if p.peek().Is(text) {
		p.i++
		return true
	}
	return false
}

// errorf reports a message at the line of the current token.
func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("acme:%d: %s", p.peek().Line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) expectWord() (string, error) {
	t := p.peek()
	if t.Kind != constraint.Ident {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.i++
	return t.Text, nil
}

// Parse parses an ADL source text.
func Parse(src string) (*Description, error) {
	p := &parser{toks: constraint.Lex(src)}
	if !p.accept("system") {
		return nil, p.errorf("expected 'system', found %s", p.peek())
	}
	name, err := p.expectWord()
	if err != nil {
		return nil, err
	}
	style := ""
	if p.accept(":") {
		style, err = p.expectWord()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect("="); err != nil {
		return nil, err
	}
	d := &Description{System: model.NewSystem(name, style)}
	if err := p.parseSystemBody(d, d.System); err != nil {
		return nil, err
	}
	if p.peek().Kind != constraint.EOF {
		return nil, p.errorf("trailing input %s", p.peek())
	}
	if err := d.System.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

type attSpec struct {
	compOrConn, portOrRole string
	toConn, toRole         string
	line                   int
}

// parseSystemBody parses a system's or a representation's `{ ... }`. A
// representation nests one inside a component, so this is where nesting is
// bounded, at the depth the expression parser allows.
func (p *parser) parseSystemBody(d *Description, sys *model.System) error {
	if p.depth++; p.depth > constraint.MaxNesting {
		return p.errorf("representations nested deeper than %d", constraint.MaxNesting)
	}
	defer func() { p.depth-- }()
	if err := p.expect("{"); err != nil {
		return err
	}
	var atts []attSpec
	for !p.accept("}") {
		switch {
		case p.accept("property"):
			if err := p.parseProperty(sys.Props()); err != nil {
				return err
			}
		case p.accept("component"):
			if err := p.parseComponent(d, sys); err != nil {
				return err
			}
		case p.accept("connector"):
			if err := p.parseConnector(sys); err != nil {
				return err
			}
		case p.accept("attachment"):
			a, err := p.parseAttachment()
			if err != nil {
				return err
			}
			atts = append(atts, a)
		case p.accept("invariant"):
			if err := p.parseInvariant(d); err != nil {
				return err
			}
		default:
			return p.errorf("expected declaration, found %s", p.peek())
		}
	}
	// Resolve attachments after all declarations.
	for _, a := range atts {
		comp := sys.Component(a.compOrConn)
		if comp == nil {
			return fmt.Errorf("acme:%d: attachment references unknown component %q", a.line, a.compOrConn)
		}
		port := comp.Port(a.portOrRole)
		if port == nil {
			return fmt.Errorf("acme:%d: component %q has no port %q", a.line, a.compOrConn, a.portOrRole)
		}
		conn := sys.Connector(a.toConn)
		if conn == nil {
			return fmt.Errorf("acme:%d: attachment references unknown connector %q", a.line, a.toConn)
		}
		role := conn.Role(a.toRole)
		if role == nil {
			return fmt.Errorf("acme:%d: connector %q has no role %q", a.line, a.toConn, a.toRole)
		}
		if err := sys.Attach(port, role); err != nil {
			return fmt.Errorf("acme:%d: %w", a.line, err)
		}
	}
	return nil
}

func (p *parser) parseProperty(props *model.Props) error {
	name, err := p.expectWord()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	var v any
	switch t := p.peek(); {
	case t.Kind == constraint.Number:
		v = t.Num
	case t.Is("-") && p.toks[p.i+1].Kind == constraint.Number:
		p.i++
		v = -p.peek().Num
	case t.Kind == constraint.String:
		v = t.Text
	case t.Is("true") || t.Is("false"):
		v = t.Text == "true"
	default:
		return p.errorf("bad property value %s", t)
	}
	p.i++
	props.Set(name, v)
	return p.expect(";")
}

func (p *parser) parseComponent(d *Description, sys *model.System) error {
	// The model panics on a duplicate name, so each declaration is checked
	// against its scope before it is added.
	if t := p.peek(); t.Kind == constraint.Ident && sys.Component(t.Text) != nil {
		return p.errorf("duplicate component %q", t.Text)
	}
	name, err := p.expectWord()
	if err != nil {
		return err
	}
	typ := ""
	if p.accept(":") {
		if typ, err = p.expectWord(); err != nil {
			return err
		}
	}
	c := sys.AddComponent(name, typ)
	if p.accept(";") {
		return nil
	}
	if err := p.expect("="); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		switch {
		case p.accept("property"):
			if err := p.parseProperty(c.Props()); err != nil {
				return err
			}
		case p.accept("port"):
			if t := p.peek(); t.Kind == constraint.Ident && c.Port(t.Text) != nil {
				return p.errorf("duplicate port %s.%s", name, t.Text)
			}
			pn, err := p.expectWord()
			if err != nil {
				return err
			}
			pt := ""
			if p.accept(":") {
				if pt, err = p.expectWord(); err != nil {
					return err
				}
			}
			port := c.AddPort(pn, pt)
			if p.accept("=") {
				if err := p.expect("{"); err != nil {
					return err
				}
				for !p.accept("}") {
					if !p.accept("property") {
						return p.errorf("expected property in port body")
					}
					if err := p.parseProperty(port.Props()); err != nil {
						return err
					}
				}
			} else if err := p.expect(";"); err != nil {
				return err
			}
		case p.accept("representation"):
			if err := p.expect("="); err != nil {
				return err
			}
			rep := c.EnsureRep()
			if err := p.parseSystemBody(d, rep); err != nil {
				return err
			}
		default:
			return p.errorf("unexpected %s in component body", p.peek())
		}
	}
	return nil
}

func (p *parser) parseConnector(sys *model.System) error {
	if t := p.peek(); t.Kind == constraint.Ident && sys.Connector(t.Text) != nil {
		return p.errorf("duplicate connector %q", t.Text)
	}
	name, err := p.expectWord()
	if err != nil {
		return err
	}
	typ := ""
	if p.accept(":") {
		if typ, err = p.expectWord(); err != nil {
			return err
		}
	}
	c := sys.AddConnector(name, typ)
	if p.accept(";") {
		return nil
	}
	if err := p.expect("="); err != nil {
		return err
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		switch {
		case p.accept("property"):
			if err := p.parseProperty(c.Props()); err != nil {
				return err
			}
		case p.accept("role"):
			if t := p.peek(); t.Kind == constraint.Ident && c.Role(t.Text) != nil {
				return p.errorf("duplicate role %s.%s", name, t.Text)
			}
			rn, err := p.expectWord()
			if err != nil {
				return err
			}
			rt := ""
			if p.accept(":") {
				if rt, err = p.expectWord(); err != nil {
					return err
				}
			}
			role := c.AddRole(rn, rt)
			if p.accept("=") {
				if err := p.expect("{"); err != nil {
					return err
				}
				for !p.accept("}") {
					if !p.accept("property") {
						return p.errorf("expected property in role body")
					}
					if err := p.parseProperty(role.Props()); err != nil {
						return err
					}
				}
			} else if err := p.expect(";"); err != nil {
				return err
			}
		default:
			return p.errorf("unexpected %s in connector body", p.peek())
		}
	}
	return nil
}

func (p *parser) parseAttachment() (attSpec, error) {
	var a attSpec
	a.line = p.peek().Line
	var err error
	if a.compOrConn, err = p.expectWord(); err != nil {
		return a, err
	}
	if err = p.expect("."); err != nil {
		return a, err
	}
	if a.portOrRole, err = p.expectWord(); err != nil {
		return a, err
	}
	if !p.accept("to") {
		return a, p.errorf("expected 'to' in attachment")
	}
	if a.toConn, err = p.expectWord(); err != nil {
		return a, err
	}
	if err = p.expect("."); err != nil {
		return a, err
	}
	if a.toRole, err = p.expectWord(); err != nil {
		return a, err
	}
	return a, p.expect(";")
}

// parseInvariant parses `invariant NAME [on TYPE] : expr;`.
func (p *parser) parseInvariant(d *Description) error {
	name, err := p.expectWord()
	if err != nil {
		return err
	}
	scope := ""
	if p.accept("on") {
		if scope, err = p.expectWord(); err != nil {
			return err
		}
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	e, next, err := constraint.ParsePrefix(p.toks, p.i)
	p.i = next
	if err != nil {
		return p.errorf("invariant %s: %v", name, err)
	}
	d.Invariants = append(d.Invariants, &constraint.Invariant{Name: name, Scope: scope, Expr: e})
	return p.expect(";")
}
