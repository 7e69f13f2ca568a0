package model

import "fmt"

// The Restore* methods re-insert a previously removed element pointer, with
// all its ports/roles/properties intact. They exist for transactional undo in
// the repair layer: Remove followed by Restore of the same pointer is an
// exact inverse.

// RestoreComponent re-adds a component removed from this system.
func (s *System) RestoreComponent(c *Component) error {
	if c == nil {
		return fmt.Errorf("model: restore nil component")
	}
	if s.Component(c.name) != nil {
		return fmt.Errorf("model: restore: component %q already present", c.name)
	}
	c.parent = s
	s.components = append(s.components, c)
	s.rev++
	return nil
}

// RestoreConnector re-adds a connector removed from this system.
func (s *System) RestoreConnector(c *Connector) error {
	if c == nil {
		return fmt.Errorf("model: restore nil connector")
	}
	if s.Connector(c.name) != nil {
		return fmt.Errorf("model: restore: connector %q already present", c.name)
	}
	c.parent = s
	s.connectors = append(s.connectors, c)
	s.rev++
	return nil
}

// RestoreRole re-adds a role removed from this connector.
func (c *Connector) RestoreRole(r *Role) error {
	if r == nil {
		return fmt.Errorf("model: restore nil role")
	}
	if c.Role(r.name) != nil {
		return fmt.Errorf("model: restore: role %s.%s already present", c.name, r.name)
	}
	r.Owner = c
	c.roles = append(c.roles, r)
	c.parent.touch()
	return nil
}

// RestorePort re-adds a port removed from this component.
func (c *Component) RestorePort(p *Port) error {
	if p == nil {
		return fmt.Errorf("model: restore nil port")
	}
	if c.Port(p.name) != nil {
		return fmt.Errorf("model: restore: port %s.%s already present", c.name, p.name)
	}
	p.Owner = c
	c.ports = append(c.ports, p)
	c.parent.touch()
	return nil
}
