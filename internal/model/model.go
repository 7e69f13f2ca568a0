// Package model implements the runtime software-architecture model at the
// heart of the paper: a graph of typed components and connectors annotated
// with property lists, the representation scheme shared by Acme, xADL and
// SADL (§2).
//
// Components expose Ports; connectors expose Roles; an Attachment binds a
// port to a role. A component may carry a Representation — a nested
// sub-architecture (the paper's ServerGrpRep holding the replicated servers).
//
// The model is a plain data structure mutated only from kernel context; the
// repair package layers transactional undo on top of the mutation methods
// here.
package model

import (
	"fmt"
	"slices"
	"strings"
)

// Kind discriminates element categories.
type Kind int

// Element kinds.
const (
	KindComponent Kind = iota
	KindConnector
	KindPort
	KindRole
	KindSystem
)

func (k Kind) String() string {
	switch k {
	case KindComponent:
		return "component"
	case KindConnector:
		return "connector"
	case KindPort:
		return "port"
	case KindRole:
		return "role"
	case KindSystem:
		return "system"
	}
	return "unknown"
}

// Element is the interface shared by all architecture elements.
type Element interface {
	Name() string
	Kind() Kind
	Type() string
	Props() *Props
}

// elem carries the common fields of every element.
type elem struct {
	name  string
	typ   string
	props Props
}

func (e *elem) Name() string  { return e.name }
func (e *elem) Type() string  { return e.typ }
func (e *elem) Props() *Props { return &e.props }

// Port is a component's point of interaction.
type Port struct {
	elem
	Owner *Component
}

// Kind implements Element.
func (p *Port) Kind() Kind { return KindPort }

// QName returns "component.port".
func (p *Port) QName() string { return p.Owner.Name() + "." + p.Name() }

// Role is a connector's point of attachment.
type Role struct {
	elem
	Owner *Connector
}

// Kind implements Element.
func (r *Role) Kind() Kind { return KindRole }

// QName returns "connector.role".
func (r *Role) QName() string { return r.Owner.Name() + "." + r.Name() }

// Component is a principal computational element or data store.
type Component struct {
	elem
	ports  []*Port
	Rep    *System // optional representation (nested sub-architecture)
	parent *System
}

// Kind implements Element.
func (c *Component) Kind() Kind { return KindComponent }

// System returns the system that owns this component.
func (c *Component) System() *System { return c.parent }

// Ports returns the component's ports in declaration order.
func (c *Component) Ports() []*Port { return c.ports }

// Port returns the named port, or nil.
func (c *Component) Port(name string) *Port {
	for _, p := range c.ports {
		if p.name == name {
			return p
		}
	}
	return nil
}

// AddPort declares a new port of the given type. A duplicate name panics; a
// caller whose names come from input checks them first, as acme.Parse does.
func (c *Component) AddPort(name, typ string) *Port {
	if c.Port(name) != nil {
		// Invariant: operators.Build gives each new component its one
		// fixed port, acme.Parse rejects a repeated port, and Clone copies
		// a system that already holds.
		panic(fmt.Sprintf("model: duplicate port %s.%s", c.name, name))
	}
	p := &Port{elem: elem{name: name, typ: typ, props: NewProps()}, Owner: c}
	c.ports = append(c.ports, p)
	c.parent.touch()
	return p
}

// EnsureRep returns the component's representation, creating an empty one if
// needed.
func (c *Component) EnsureRep() *System {
	if c.Rep == nil {
		c.Rep = NewSystem(c.name+"Rep", "")
	}
	return c.Rep
}

// Connector is a pathway of interaction between components.
type Connector struct {
	elem
	roles  []*Role
	parent *System
}

// Kind implements Element.
func (c *Connector) Kind() Kind { return KindConnector }

// System returns the owning system.
func (c *Connector) System() *System { return c.parent }

// Roles returns the connector's roles in declaration order.
func (c *Connector) Roles() []*Role { return c.roles }

// Role returns the named role, or nil.
func (c *Connector) Role(name string) *Role {
	for _, r := range c.roles {
		if r.name == name {
			return r
		}
	}
	return nil
}

// AddRole declares a new role of the given type. A duplicate name panics, as
// in AddPort.
func (c *Connector) AddRole(name, typ string) *Role {
	if c.Role(name) != nil {
		// Invariant: operators.Build names roles after clients it has
		// checked are unique, acme.Parse and repair.Txn.AddRole check
		// first, and Clone copies a system that already holds.
		panic(fmt.Sprintf("model: duplicate role %s.%s", c.name, name))
	}
	r := &Role{elem: elem{name: name, typ: typ, props: NewProps()}, Owner: c}
	c.roles = append(c.roles, r)
	c.parent.touch()
	return r
}

// RemoveRole deletes a role; attachments referencing it must be removed
// first.
func (c *Connector) RemoveRole(name string) error {
	for i, r := range c.roles {
		if r.name == name {
			if c.parent != nil && len(c.parent.AttachmentsOfRole(r)) > 0 {
				return fmt.Errorf("model: role %s still attached", r.QName())
			}
			c.roles = append(c.roles[:i], c.roles[i+1:]...)
			c.parent.touch()
			return nil
		}
	}
	return fmt.Errorf("model: no role %s.%s", c.name, name)
}

// Attachment binds a component port to a connector role.
type Attachment struct {
	Port *Port
	Role *Role
}

// System is an architecture graph: components, connectors, attachments.
// A System may also serve as a component representation.
type System struct {
	elem
	components []*Component
	connectors []*Connector
	atts       []Attachment
	rev        uint64
	byType     *typeList // ComponentsByType answers, one per type asked for
}

// typeList is one cached ComponentsByType answer, current while the system's
// structure revision reads rev. A system is asked for a type or two, so the
// answers form a list; one pointer keeps System in its size class.
type typeList struct {
	typ  string
	rev  uint64
	list []*Component
	next *typeList
}

// StructRev returns the system's structure revision: it moves whenever a
// component, connector, port, role or attachment is added, removed or
// restored, so an element enumeration taken at one StructRev (an
// invariant's scope) still holds while it reads the same. Property writes
// move the element's Props.Rev instead.
func (s *System) StructRev() uint64 { return s.rev }

// touch records a structure change; ports and roles of a component or
// connector outside any system have none to record it on.
func (s *System) touch() {
	if s != nil {
		s.rev++
	}
}

// NewSystem creates an empty system with the given name and style (type).
func NewSystem(name, style string) *System {
	return &System{elem: elem{name: name, typ: style, props: NewProps()}}
}

// Kind implements Element.
func (s *System) Kind() Kind { return KindSystem }

// Components returns the components in declaration order.
func (s *System) Components() []*Component { return s.components }

// Connectors returns the connectors in declaration order.
func (s *System) Connectors() []*Connector { return s.connectors }

// Attachments returns all attachments.
func (s *System) Attachments() []Attachment { return s.atts }

// Component returns the named component, or nil.
func (s *System) Component(name string) *Component {
	for _, c := range s.components {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Connector returns the named connector, or nil.
func (s *System) Connector(name string) *Connector {
	for _, c := range s.connectors {
		if c.name == name {
			return c
		}
	}
	return nil
}

// AddComponent creates a component of the given type. A duplicate name
// panics, as in AddPort.
func (s *System) AddComponent(name, typ string) *Component {
	if s.Component(name) != nil {
		// Invariant: operators.Build, which Deploy and the fleet's
		// fleet.AppSpec.Spec specs pass through, and acme.Parse check
		// names first, and Clone copies a system that already holds.
		panic(fmt.Sprintf("model: duplicate component %q", name))
	}
	c := &Component{elem: elem{name: name, typ: typ, props: NewProps()}, parent: s}
	s.components = append(s.components, c)
	s.rev++
	return c
}

// AddConnector creates a connector of the given type. A duplicate name
// panics, as in AddPort.
func (s *System) AddConnector(name, typ string) *Connector {
	if s.Connector(name) != nil {
		// Invariant: operators.Build names connectors after groups it has
		// checked are unique, acme.Parse checks first, and Clone copies a
		// system that already holds.
		panic(fmt.Sprintf("model: duplicate connector %q", name))
	}
	c := &Connector{elem: elem{name: name, typ: typ, props: NewProps()}, parent: s}
	s.connectors = append(s.connectors, c)
	s.rev++
	return c
}

// Attach binds port to role. Both must belong to this system, and a role can
// hold at most one attachment (a port may attach to several roles).
func (s *System) Attach(p *Port, r *Role) error {
	if p == nil || r == nil {
		return fmt.Errorf("model: attach with nil endpoint")
	}
	if p.Owner.parent != s || r.Owner.parent != s {
		return fmt.Errorf("model: attach across systems (%s -> %s)", p.QName(), r.QName())
	}
	for _, a := range s.atts {
		if a.Role == r {
			return fmt.Errorf("model: role %s already attached", r.QName())
		}
		if a.Port == p && a.Role == r {
			return fmt.Errorf("model: duplicate attachment %s -> %s", p.QName(), r.QName())
		}
	}
	s.atts = append(s.atts, Attachment{Port: p, Role: r})
	s.rev++
	return nil
}

// Detach removes the attachment between p and r.
func (s *System) Detach(p *Port, r *Role) error {
	for i, a := range s.atts {
		if a.Port == p && a.Role == r {
			s.atts = append(s.atts[:i], s.atts[i+1:]...)
			s.rev++
			return nil
		}
	}
	return fmt.Errorf("model: no attachment %s -> %s", p.QName(), r.QName())
}

// PortAttachment returns the first attachment involving p and how many
// there are — the allocation-free form for per-report model lookups, where
// the style guarantees exactly one attachment per client request port.
func (s *System) PortAttachment(p *Port) (Attachment, int) {
	var first Attachment
	n := 0
	for _, a := range s.atts {
		if a.Port == p {
			if n == 0 {
				first = a
			}
			n++
		}
	}
	return first, n
}

// AttachmentsOfRole returns attachments involving r.
func (s *System) AttachmentsOfRole(r *Role) []Attachment {
	var out []Attachment
	for _, a := range s.atts {
		if a.Role == r {
			out = append(out, a)
		}
	}
	return out
}

// Attached reports whether port p is attached to role r — the paper's
// attached(role, port) predicate (Fig. 5 line 8).
func (s *System) Attached(p *Port, r *Role) bool {
	for _, a := range s.atts {
		if a.Port == p && a.Role == r {
			return true
		}
	}
	return false
}

// Connected reports whether two components share a connector — the paper's
// connected(sgrp, client) predicate (Fig. 5 line 20). It scans the
// attachments in place: a repair tactic asks it once per group per tick.
func (s *System) Connected(a, b *Component) bool {
	for _, x := range s.atts {
		if x.Port.Owner != a {
			continue
		}
		for _, y := range s.atts {
			if y.Port.Owner == b && y.Role.Owner == x.Role.Owner {
				return true
			}
		}
	}
	return false
}

// ComponentsByType returns components whose type equals typ, sorted by name
// for deterministic iteration in repair scripts. The list is built once per
// structure revision and shared, so callers must not modify it; its capacity
// equals its length, so a caller's append copies instead of writing into it.
func (s *System) ComponentsByType(typ string) []*Component {
	for t := s.byType; t != nil; t = t.next {
		if t.typ == typ {
			if t.rev != s.rev {
				t.list, t.rev = s.componentsOfType(typ), s.rev
			}
			return t.list
		}
	}
	s.byType = &typeList{typ: typ, rev: s.rev, list: s.componentsOfType(typ), next: s.byType}
	return s.byType.list
}

// componentsOfType builds a fresh ComponentsByType answer, so a list handed
// out at an older revision is never written to again.
func (s *System) componentsOfType(typ string) []*Component {
	var out []*Component
	for _, c := range s.components {
		if c.typ == typ {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *Component) int { return strings.Compare(a.name, b.name) })
	return slices.Clip(out)
}

// Validate checks structural integrity: attachment endpoints belong to this
// system, no dangling references, representations valid in turn.
func (s *System) Validate() error {
	inComps := map[*Component]bool{}
	for _, c := range s.components {
		inComps[c] = true
	}
	inConns := map[*Connector]bool{}
	for _, c := range s.connectors {
		inConns[c] = true
	}
	for _, a := range s.atts {
		if a.Port == nil || a.Role == nil {
			return fmt.Errorf("model: attachment with nil endpoint in %q", s.name)
		}
		if !inComps[a.Port.Owner] {
			return fmt.Errorf("model: attachment port %s not in system %q", a.Port.QName(), s.name)
		}
		if !inConns[a.Role.Owner] {
			return fmt.Errorf("model: attachment role %s not in system %q", a.Role.QName(), s.name)
		}
	}
	roleSeen := map[*Role]bool{}
	for _, a := range s.atts {
		if roleSeen[a.Role] {
			return fmt.Errorf("model: role %s multiply attached", a.Role.QName())
		}
		roleSeen[a.Role] = true
	}
	for _, c := range s.components {
		if c.Rep != nil {
			if err := c.Rep.Validate(); err != nil {
				return fmt.Errorf("model: rep of %q: %w", c.name, err)
			}
		}
	}
	return nil
}
