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
type parser struct{ constraint.Cursor }

// Parse parses an ADL source text.
func Parse(src string) (*Description, error) {
	p := &parser{constraint.NewCursor("acme", src)}
	if !p.Accept("system") {
		return nil, p.Errorf("expected 'system', found %s", p.Peek())
	}
	name, style, err := p.decl()
	if err != nil {
		return nil, err
	}
	if err := p.Expect("="); err != nil {
		return nil, err
	}
	d := &Description{System: model.NewSystem(name, style)}
	if err := p.parseSystemBody(d, d.System); err != nil {
		return nil, err
	}
	if p.Peek().Kind != constraint.EOF {
		return nil, p.Errorf("trailing input %s", p.Peek())
	}
	if err := d.System.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// decl consumes an element's `NAME [: TYPE]`.
func (p *parser) decl() (name, typ string, err error) {
	if name, err = p.Word("identifier"); err == nil && p.Accept(":") {
		typ, err = p.Word("identifier")
	}
	return name, typ, err
}

type attSpec struct {
	compOrConn, portOrRole string
	toConn, toRole         string
	line                   int
}

// parseSystemBody parses a system's or a representation's `{ ... }`. A
// representation nests one inside a component, so this is where nesting is
// bounded, by the cursor's one guard.
func (p *parser) parseSystemBody(d *Description, sys *model.System) error {
	if err := p.Descend("representations"); err != nil {
		return err
	}
	defer p.Ascend()
	if err := p.Expect("{"); err != nil {
		return err
	}
	var atts []attSpec
	for !p.Accept("}") {
		switch {
		case p.Accept("property"):
			if err := p.parseProperty(sys.Props()); err != nil {
				return err
			}
		case p.Accept("component"):
			if err := p.parseComponent(d, sys); err != nil {
				return err
			}
		case p.Accept("connector"):
			if err := p.parseConnector(sys); err != nil {
				return err
			}
		case p.Accept("attachment"):
			a, err := p.parseAttachment()
			if err != nil {
				return err
			}
			atts = append(atts, a)
		case p.Accept("invariant"):
			if err := p.parseInvariant(d); err != nil {
				return err
			}
		default:
			return p.Errorf("expected declaration, found %s", p.Peek())
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
	name, err := p.Word("identifier")
	if err != nil {
		return err
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	var v any
	switch t := p.Peek(); {
	case t.Kind == constraint.Number:
		v = t.Num
	case t.Is("-") && p.Peek2().Kind == constraint.Number:
		p.Next()
		v = -p.Peek().Num
	case t.Kind == constraint.String:
		v = t.Text
	case t.Is("true") || t.Is("false"):
		v = t.Text == "true"
	default:
		return p.Errorf("bad property value %s", t)
	}
	p.Next()
	props.Set(name, v)
	return p.Expect(";")
}

func (p *parser) parseComponent(d *Description, sys *model.System) error {
	// The model panics on a duplicate name, so each declaration is checked
	// against its scope before it is added.
	if t := p.Peek(); t.Kind == constraint.Ident && sys.Component(t.Text) != nil {
		return p.Errorf("duplicate component %q", t.Text)
	}
	name, typ, err := p.decl()
	if err != nil {
		return err
	}
	c := sys.AddComponent(name, typ)
	if p.Accept(";") {
		return nil
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	for !p.Accept("}") {
		switch {
		case p.Accept("property"):
			if err := p.parseProperty(c.Props()); err != nil {
				return err
			}
		case p.Accept("port"):
			err := p.parseEnd("port", name, func(n string) bool { return c.Port(n) != nil },
				func(n, t string) model.Element { return c.AddPort(n, t) })
			if err != nil {
				return err
			}
		case p.Accept("representation"):
			if err := p.Expect("="); err != nil {
				return err
			}
			rep := c.EnsureRep()
			if err := p.parseSystemBody(d, rep); err != nil {
				return err
			}
		default:
			return p.Errorf("unexpected %s in component body", p.Peek())
		}
	}
	return nil
}

func (p *parser) parseConnector(sys *model.System) error {
	if t := p.Peek(); t.Kind == constraint.Ident && sys.Connector(t.Text) != nil {
		return p.Errorf("duplicate connector %q", t.Text)
	}
	name, typ, err := p.decl()
	if err != nil {
		return err
	}
	c := sys.AddConnector(name, typ)
	if p.Accept(";") {
		return nil
	}
	if err := p.Expect("="); err != nil {
		return err
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	for !p.Accept("}") {
		switch {
		case p.Accept("property"):
			if err := p.parseProperty(c.Props()); err != nil {
				return err
			}
		case p.Accept("role"):
			err := p.parseEnd("role", name, func(n string) bool { return c.Role(n) != nil },
				func(n, t string) model.Element { return c.AddRole(n, t) })
			if err != nil {
				return err
			}
		default:
			return p.Errorf("unexpected %s in connector body", p.Peek())
		}
	}
	return nil
}

// parseEnd parses a port or role declaration, `NAME [: TYPE]` and then `;`
// or a body of properties, into the component or connector called owner:
// has reports whether it already has the name, add declares the element.
func (p *parser) parseEnd(kind, owner string, has func(string) bool, add func(name, typ string) model.Element) error {
	if t := p.Peek(); t.Kind == constraint.Ident && has(t.Text) {
		return p.Errorf("duplicate %s %s.%s", kind, owner, t.Text)
	}
	name, typ, err := p.decl()
	if err != nil {
		return err
	}
	e := add(name, typ)
	if !p.Accept("=") {
		return p.Expect(";")
	}
	if err := p.Expect("{"); err != nil {
		return err
	}
	for !p.Accept("}") {
		if !p.Accept("property") {
			return p.Errorf("expected property in %s body", kind)
		}
		if err := p.parseProperty(e.Props()); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseAttachment() (a attSpec, err error) {
	a.line = p.Peek().Line
	if a.compOrConn, a.portOrRole, err = p.qname(); err != nil {
		return a, err
	}
	if !p.Accept("to") {
		return a, p.Errorf("expected 'to' in attachment")
	}
	if a.toConn, a.toRole, err = p.qname(); err != nil {
		return a, err
	}
	return a, p.Expect(";")
}

// qname consumes a port's or a role's `OWNER.NAME`.
func (p *parser) qname() (owner, name string, err error) {
	if owner, err = p.Word("identifier"); err == nil {
		if err = p.Expect("."); err == nil {
			name, err = p.Word("identifier")
		}
	}
	return owner, name, err
}

// parseInvariant parses `invariant NAME [on TYPE] : expr;`.
func (p *parser) parseInvariant(d *Description) error {
	name, err := p.Word("identifier")
	if err != nil {
		return err
	}
	scope := ""
	if p.Accept("on") {
		if scope, err = p.Word("identifier"); err != nil {
			return err
		}
	}
	if err := p.Expect(":"); err != nil {
		return err
	}
	e, err := p.Expr()
	if err != nil {
		return p.Errorf("invariant %s: %v", name, err)
	}
	d.Invariants = append(d.Invariants, &constraint.Invariant{Name: name, Scope: scope, Expr: e})
	return p.Expect(";")
}
